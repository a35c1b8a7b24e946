"""Scalable synthetic curated relation for the benchmark.

The relation has 2 genders x A age groups x 6 rows. Age groups come in blocks
of four, and each block owns its own block of ten diagnoses laid out exactly
like the 48-row harness relation (group a of a block draws the diagnosis
window 2a .. 2a+5 mod 10), so every (GEN, DIAG) FD group keeps 2-3 rows and
every (GEN, AGE) group keeps 3-5 distinct medications at any size. The
diagnosis -> medication map is the harness map, shifted by 16 per block and
by 8 per gender. Hierarchy heights match the harness (GEN 2, AGE 3, DIAG 3,
MED 5 levels), so a level cap means the same thing at every size.
"""

from __future__ import annotations

from dataclasses import dataclass

from pacas.anonymity import is_xy_anonymous
from pacas.hierarchy import HierarchySet, load_hierarchy
from pacas.relation import DependencyConfig, GeneralizedRelation, Row, Schema, violations
from pacas.rng import child_rng

MED_MAP = (0, 1, 2, 0, 1, 2, 3, 4, 3, 4)  # diagnosis index within a block -> medication
GROUP_ROWS = 6
AGES_PER_BLOCK = 4
DIAGS_PER_BLOCK = 10
MEDS_PER_BLOCK = 16
ROWS_PER_BLOCK = 2 * AGES_PER_BLOCK * GROUP_ROWS  # 48
K = 3


@dataclass
class Bundle:
    master: GeneralizedRelation
    truth: GeneralizedRelation
    hierarchies: HierarchySet
    config: DependencyConfig
    hierarchy_docs: list[dict]
    config_doc: dict
    x: tuple[str, ...] = ("GEN", "AGE")
    y: tuple[str, ...] = ("MED",)


def _tree(attribute: str, leaves: list[str], fanouts: list[int]) -> dict:
    """Balanced tree over the leaves: level i+1 groups `fanouts[i]` nodes of
    level i, and a single root caps the top."""
    nodes = []
    level_nodes = leaves
    for level, fanout in enumerate(fanouts):
        parents = [f"{attribute.lower()}L{level + 1}_{i // fanout}"
                   for i in range(len(level_nodes))]
        nodes += [{"value": v, "level": level, "parent": p}
                  for v, p in zip(level_nodes, parents)]
        level_nodes = list(dict.fromkeys(parents))
    top = len(fanouts)
    nodes += [{"value": v, "level": top, "parent": "*"} for v in level_nodes]
    nodes.append({"value": "*", "level": top + 1, "parent": None})
    return {"attribute": attribute, "levels": top + 2, "nodes": nodes}


def hierarchy_docs(blocks: int) -> list[dict]:
    ages = [str(21 + a) for a in range(AGES_PER_BLOCK * blocks)]
    diags = [f"diag{d}" for d in range(DIAGS_PER_BLOCK * blocks)]
    meds = [f"med{m:03d}" for m in range(MEDS_PER_BLOCK * blocks)]
    gen = {"attribute": "GEN", "levels": 2, "nodes": [
        {"value": "*", "level": 1, "parent": None},
        {"value": "male", "level": 0, "parent": "*"},
        {"value": "female", "level": 0, "parent": "*"},
    ]}
    # heights: AGE 3 levels (pairs), DIAG 3 levels (groups of five),
    # MED 5 levels (pairs of pairs of pairs)
    return [gen, _tree("AGE", ages, [2]), _tree("DIAG", diags, [5]),
            _tree("MED", meds, [2, 2, 2])]


def generate(seed: int, n: int) -> Bundle:
    """Seeded FD-consistent, (GEN,AGE)->MED 3-anonymous relation of n rows."""
    if n < ROWS_PER_BLOCK or n % ROWS_PER_BLOCK:
        raise ValueError(f"n must be a positive multiple of {ROWS_PER_BLOCK}, got {n}")
    blocks = n // ROWS_PER_BLOCK
    docs = hierarchy_docs(blocks)
    hierarchies = HierarchySet()
    for doc in docs:
        h = load_hierarchy(doc)
        hierarchies[h.attribute] = h
    rng = child_rng(seed, "master")
    rows: list[Row] = []
    for g, gender in enumerate(("male", "female")):
        for a in range(AGES_PER_BLOCK * blocks):
            block, local = divmod(a, AGES_PER_BLOCK)
            window = [(2 * local + i) % DIAGS_PER_BLOCK for i in range(GROUP_ROWS)]
            rng.shuffle(window)
            for j in window:
                med = MEDS_PER_BLOCK * block + 8 * g + MED_MAP[j]
                rows.append(Row(f"m{len(rows) + 1}", {
                    "GEN": gender, "AGE": str(21 + a),
                    "DIAG": f"diag{DIAGS_PER_BLOCK * block + j}", "MED": f"med{med:03d}",
                }))
    schema = Schema(attributes=("GEN", "AGE", "DIAG", "MED"), qi=("GEN", "AGE"),
                    sensitive=("MED",), key="ID")
    master = GeneralizedRelation(schema=schema, rows=rows, hierarchies=hierarchies)
    truth = GeneralizedRelation(
        schema=schema,
        rows=[Row(f"t{i + 1}", dict(r.values)) for i, r in enumerate(rows)],
        hierarchies=hierarchies,
    )
    config_doc = {
        "qi": ["GEN", "AGE"],
        "sensitive": ["MED"],
        "fds": [{"lhs": ["GEN", "DIAG"], "rhs": ["MED"]}],
        "mds": [{"match": [["GEN", "GEN"], ["AGE", "AGE"], ["DIAG", "DIAG"]],
                 "target": ["MED", "MED"]}],
    }
    bundle = Bundle(master=master, truth=truth, hierarchies=hierarchies,
                    config=DependencyConfig.from_json(config_doc),
                    hierarchy_docs=docs, config_doc=config_doc)
    _check(bundle)
    return bundle


def _check(bundle: Bundle) -> None:
    master, fds = bundle.master, bundle.config.fds
    if violations(master, fds):
        raise RuntimeError("generated relation violates its FDs")
    if not is_xy_anonymous(master, bundle.x, bundle.y, K):
        raise RuntimeError(f"generated relation is not (X,Y)-anonymous at k={K}")
    diversity: dict[tuple, set] = {}
    fd_groups: dict[tuple, int] = {}
    for row in master.rows:
        v = row.values
        diversity.setdefault((v["GEN"], v["AGE"]), set()).add(v["MED"])
        fd_groups[(v["GEN"], v["DIAG"])] = fd_groups.get((v["GEN"], v["DIAG"]), 0) + 1
    if not all(3 <= len(meds) <= 5 for meds in diversity.values()):
        raise RuntimeError("a (GEN, AGE) group has MED diversity outside 3-5")
    if not all(2 <= size <= 3 for size in fd_groups.values()):
        raise RuntimeError("a (GEN, DIAG) group holds other than 2-3 rows")
