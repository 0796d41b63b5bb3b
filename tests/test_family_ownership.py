"""One owner per family fact: only rules and pooling read a rule's family
record (RuleSpec._impl), pooling reads only the inverse fields its drivers
need, and only as rule._impl.<field>, so that G's Hessian (hess,
homogeneous) is read in rules alone and the learner takes its float
inverse from pooling."""

import ast
from pathlib import Path

import qapool

SRC = Path(qapool.__file__).parent
# the family record's fields that pooling's inversion drivers read
POOLING_READS = {"closed_form", "shift", "float_inverse", "float_shift", "bounded"}


def record_reads(path: Path) -> list[tuple[int, str | None]]:
    """(line, field) of every ``._impl`` in the module at path; the field is
    None where the record itself is taken (an alias, an argument) rather
    than one of its fields read."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_impl":
            parent = parents[node]
            read = isinstance(parent, ast.Attribute) and parent.value is node
            reads.append((node.lineno, parent.attr if read else None))
    return sorted(reads)


def test_only_rules_and_pooling_name_the_family_record():
    for name in ("_impl", "_FAMILIES"):
        named = [path.name for path in sorted(SRC.glob("*.py")) if name in path.read_text()]
        assert named == (["rules.py"] if name == "_FAMILIES" else ["pooling.py", "rules.py"])


def test_pooling_reads_only_its_inverse_fields():
    path = SRC / "pooling.py"
    reads = record_reads(path)
    # every mention is an attribute the guard sees, none a string or a name
    assert reads and len(reads) == path.read_text().count("_impl")
    other = [f"pooling.py:{line}: {field or 'the record itself'}"
             for line, field in reads if field not in POOLING_READS]
    assert not other, "pooling reads a family fact it does not own:\n" + "\n".join(other)
