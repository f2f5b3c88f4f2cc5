"""Attack-action ranking over 5G-style attack graphs (crisp and fuzzy TOPSIS)
and VEA-bility asset scoring."""

__version__ = "1.0.0"

from .classic import (
    ActionRanking,
    CriterionKind,
    CriterionLayer,
    CriterionSpec,
    DecisionMatrix,
    PairwiseMatrix,
    RankingResult,
    combinatorial_weights,
    principal_eigen,
    rank_classic,
)
from .cvss import CvssVector, parse_vector, score_cvss
from .fuzzy import (
    FuzzyDecisionMatrix,
    RatingPanel,
    aggregate_ratings,
    apply_weights,
    fuzzy_ideals,
    normalize_fuzzy,
    rank_fuzzy,
    rank_panel,
)
from .graph import (
    AttackGraph,
    AttackNode,
    AttackScheme,
    NodeKind,
    build_graph,
    enumerate_paths,
    export_dot,
)
from .scenario import ScenarioError, ScenarioFile, load_scenario, parse_scenario
from .tfn import TFN, LinguisticScale, TriangularFuzzyNumber, default_scale
from .veability import (
    AssetProfile,
    AssetScore,
    VulnerabilityRecord,
    veability_score,
)

__all__ = [
    "ActionRanking",
    "AssetProfile",
    "AssetScore",
    "AttackGraph",
    "AttackNode",
    "AttackScheme",
    "CriterionKind",
    "CriterionLayer",
    "CriterionSpec",
    "CvssVector",
    "DecisionMatrix",
    "FuzzyDecisionMatrix",
    "LinguisticScale",
    "NodeKind",
    "PairwiseMatrix",
    "RankingResult",
    "RatingPanel",
    "ScenarioError",
    "ScenarioFile",
    "TFN",
    "TriangularFuzzyNumber",
    "VulnerabilityRecord",
    "aggregate_ratings",
    "apply_weights",
    "build_graph",
    "combinatorial_weights",
    "default_scale",
    "enumerate_paths",
    "export_dot",
    "fuzzy_ideals",
    "load_scenario",
    "normalize_fuzzy",
    "parse_scenario",
    "parse_vector",
    "principal_eigen",
    "rank_classic",
    "rank_fuzzy",
    "rank_panel",
    "score_cvss",
    "veability_score",
    "__version__",
]
