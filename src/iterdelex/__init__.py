"""Slot filling and intent classification with confidence-guided input rewriting.

The engine wraps any joint slot/intent parser behind a small backend
contract and, at inference time, iteratively rewrites the input utterance
by replacing slot-value phrases with placeholder tokens, keeping whichever
rewrite the parser is most confident about. Training-side utilities build
the phrase gazetteer and the placeholder-augmented training set the parser
needs to understand placeholder tokens.
"""

from iterdelex.corpus import Dataset, SlotLabel, Span, Utterance, load_dataset, save_dataset
from iterdelex.gazetteer import Gazetteer, build_gazetteer, build_token_table
from iterdelex.augment import AugmentConfig, delexicalize_training
from iterdelex.backend import Backend, ParseResult, ScriptedBackend
from iterdelex.loglinear import LogLinearBackend, TrainingParams
from iterdelex.seed import Candidate, find_matches, seed_candidates
from iterdelex.engine import EngineConfig, InferenceOutcome, iterative_parse, project_labels, score
from iterdelex.metrics import EvalReport, evaluate
from iterdelex.synth import SyntheticSpec, default_spec, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "Backend",
    "Candidate",
    "Dataset",
    "EngineConfig",
    "EvalReport",
    "Gazetteer",
    "InferenceOutcome",
    "LogLinearBackend",
    "ParseResult",
    "ScriptedBackend",
    "SlotLabel",
    "Span",
    "SyntheticSpec",
    "TrainingParams",
    "Utterance",
    "build_gazetteer",
    "build_token_table",
    "default_spec",
    "delexicalize_training",
    "evaluate",
    "find_matches",
    "generate_corpus",
    "iterative_parse",
    "load_dataset",
    "project_labels",
    "save_dataset",
    "score",
    "seed_candidates",
]
