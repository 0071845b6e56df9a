"""Workload inputs, made from the benchmark seed alone.

The program never sees the seed: it receives only the generated graphs
(batch workloads) or generator specs whose arguments are fixed here
(``serve-mix``).  ``scale`` shrinks every size for the smoke tests; the
reference figures and the Theorem-1 path checks hold at ``scale = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SERVE_ENTRIES",
    "GraphSpec",
    "ServeSpec",
    "Solve",
    "batch_plan",
    "serve_plan",
]

#: Registry entries the service mix draws from: every one solves an
#: n ~ 300 G(n, 8/n) input in well under 100 ms (runtime job names).
SERVE_ENTRIES = (
    "mis",
    "matching",
    "vc",
    "cc_mis",
    "cc_matching",
    "congest_mis",
    "engine_mis",
)


@dataclass(frozen=True)
class GraphSpec:
    """One generator call of ``repro.graphs.generators``."""

    key: str
    generator: str
    args: tuple[tuple[str, object], ...]

    def kwargs(self) -> dict:
        return dict(self.args)


@dataclass(frozen=True)
class Solve:
    """One ``repro.api.solve`` call of a batch pass."""

    problem: str
    model: str
    graph: str  # GraphSpec.key
    path: str | None  # Theorem-1 path the entry must take at scale 1

    @property
    def label(self) -> str:
        return f"{self.problem}/{self.model}@{self.graph}"


#: sparse-lowdeg: G(500, 8/500) inputs for matching/congest, and how many
#: of them coloring/simulated also solves.
SMALL_GRAPHS = 8
COLORED_GRAPHS = 3


def _n(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def batch_plan(workload: str, seed: int, scale: float = 1.0):
    """``(graph specs, solves)`` of one batch workload."""
    if workload == "sparse-lowdeg":
        n1, n2, n3 = _n(100_000, scale, 200), _n(10_000, scale, 100), _n(500, scale, 60)
        graphs = [
            GraphSpec("gnp-block-1e5", "gnp_block_graph",
                      (("n", n1), ("p", 8.0 / n1), ("seed", 1000 * seed))),
            GraphSpec("gnp-1e4", "gnp_random_graph",
                      (("n", n2), ("p", 8.0 / n2), ("seed", 1000 * seed + 1))),
        ]
        solves = [
            Solve("mis", "simulated", "gnp-block-1e5", "lowdeg"),
            Solve("matching", "simulated", "gnp-1e4", "lowdeg"),
        ]
        # Many small CONGEST / colouring inputs: their round bills and
        # palettes step with each graph's BFS depth and max degree, and a
        # sum over several graphs keeps those steps from dominating a run.
        for k in range(SMALL_GRAPHS):
            key = f"gnp-500-{k}"
            graphs.append(GraphSpec(key, "gnp_random_graph",
                                    (("n", n3), ("p", 8.0 / n3), ("seed", 1000 * seed + 2 + k))))
            solves.append(Solve("matching", "congest", key, None))
            if k < COLORED_GRAPHS:
                solves.append(Solve("coloring", "simulated", key, None))
        return graphs, solves
    if workload == "dense-general":
        n1, n2 = _n(4000, scale, 120), _n(1200, scale, 80)
        graphs = [
            GraphSpec("gnp-4000", "gnp_random_graph",
                      (("n", n1), ("p", 0.025), ("seed", 1000 * seed))),
            GraphSpec("regular32-1200", "random_regular_graph",
                      (("n", n2), ("d", 32), ("seed", 1000 * seed + 1))),
        ]
        solves = [
            Solve("mis", "simulated", "gnp-4000", "general"),
            Solve("mis", "mpc-engine", "gnp-4000", None),
            Solve("matching", "simulated", "regular32-1200", "general"),
        ]
        return graphs, solves
    raise KeyError(workload)


@dataclass(frozen=True)
class ServeSpec:
    """One distinct service request: a job name on one generated input."""

    index: int
    job: str
    n: int
    graph_seed: int

    def body(self) -> dict:
        return {
            "problem": self.job,
            "source": {
                "kind": "generator",
                "name": "gnp_random_graph",
                "args": {"n": self.n, "p": 8.0 / self.n, "seed": self.graph_seed},
            },
            "include_solution": True,
        }

    def generator_kwargs(self) -> dict:
        return {"n": self.n, "p": 8.0 / self.n, "seed": self.graph_seed}


#: Distinct specs per block and appearances of each spec in its block.
SPECS_PER_BLOCK = 25
COPIES = 4


def serve_plan(seed: int, blocks: int) -> tuple[list[ServeSpec], list[int]]:
    """``(distinct specs, request order as spec indices)`` for ``blocks``.

    Each block holds ``SPECS_PER_BLOCK`` new specs, each sent ``COPIES``
    times in a seeded shuffle, so every block has the same share of
    first-time requests and a spec never recurs outside its block.  Job
    names rotate through :data:`SERVE_ENTRIES` and sizes step through
    200..400 by spec index, so every run asks for the same mix of work;
    the seed picks the graphs and the order.
    """
    rng = np.random.default_rng([seed, 0x5E7E])
    specs: list[ServeSpec] = []
    order: list[int] = []
    for b in range(blocks):
        first = len(specs)
        for j in range(SPECS_PER_BLOCK):
            i = first + j
            specs.append(
                ServeSpec(
                    index=i,
                    job=SERVE_ENTRIES[i % len(SERVE_ENTRIES)],
                    n=200 + (37 * i) % 201,
                    graph_seed=int(rng.integers(0, 2**31 - 1)),
                )
            )
        block = np.repeat(np.arange(first, first + SPECS_PER_BLOCK), COPIES)
        order.extend(rng.permutation(block).tolist())
    return specs, order
