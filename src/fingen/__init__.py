"""Finite-model toolkit for generator recoding on measure-preserving systems.

Modules
-------
probvec   exact probability vectors, entropy calculus, rational decomposition
typical   typical-word counting, normalized Hamming packing, injective codebooks
coding    ternary prefix codes over conditional fibers
system    finite transitive actions, invariant algebras, expressible partial maps
tower     periodic tower construction with a frequency side channel
recoder   alphabet reduction, end-to-end recoding pipeline, minimum-generator oracle
cli       deterministic command-line reports over the above
"""

from .coding import FiberDistribution, build_code, code_length_bound, ternary
from .probvec import (
    Coarsening,
    ProbVec,
    RatDecomposition,
    coarsen,
    cond_entropy,
    entropy,
    join_labels,
    label_distribution,
    ratcomb_decompose,
)
from .recoder import (
    AlphabetReductionPlan,
    RecodeParams,
    RecodePlan,
    brute_force_generator_search,
    decode,
    encode_names,
    krieger_recode,
    reduce_alphabet,
    refine_to_p,
    synthesize_prepartition,
    theta_algebra,
)
from .system import (
    FiniteSystem,
    GAlgebra,
    PseudoMap,
    avgmix,
    cyclic_permute,
    generated_algebra,
    make_equal_partition,
    simplemix,
)
from .tower import Tower, audit_tower, build_tower
from .typical import (
    CodeBook,
    PackingBudget,
    TypicalSpec,
    build_injections,
    choose_J,
    count_fiber,
    count_typical,
    dbar,
    greedy_packing,
    is_typical,
    stirling_window,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetReductionPlan",
    "Coarsening",
    "CodeBook",
    "FiberDistribution",
    "FiniteSystem",
    "GAlgebra",
    "PackingBudget",
    "ProbVec",
    "PseudoMap",
    "RatDecomposition",
    "RecodeParams",
    "RecodePlan",
    "Tower",
    "TypicalSpec",
    "audit_tower",
    "avgmix",
    "brute_force_generator_search",
    "build_code",
    "build_injections",
    "build_tower",
    "choose_J",
    "coarsen",
    "code_length_bound",
    "cond_entropy",
    "count_fiber",
    "count_typical",
    "cyclic_permute",
    "dbar",
    "decode",
    "encode_names",
    "entropy",
    "generated_algebra",
    "greedy_packing",
    "is_typical",
    "join_labels",
    "krieger_recode",
    "label_distribution",
    "make_equal_partition",
    "ratcomb_decompose",
    "reduce_alphabet",
    "refine_to_p",
    "simplemix",
    "stirling_window",
    "synthesize_prepartition",
    "ternary",
    "theta_algebra",
    "__version__",
]
