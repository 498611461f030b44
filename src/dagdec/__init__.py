"""Constrained decoding over directed acyclic token lattices.

Lattices produced by non-autoregressive generators are pruned, converted
to weighted finite-state acceptors, intersected with hard-lexical and
vocabulary constraint automata, and decoded by shortest path or by
length-constrained Viterbi search. A constrained beam search over the raw
lattice and the matching constraint-error metrics round out the toolkit.
"""

from .cbs import (
    beam_decode,
    cbs_dag_decode,
    effective_beam_size,
    greedy_decode,
)
from .constraints import (
    ConstraintPhrase,
    LexiconFsa,
    build_hlc_fsa,
    build_vocab_fsa,
    constrained_product,
    default_specials,
    extract_lexicon,
    tokenize_phrase,
)
from .dag import (
    Dag,
    DagFormatError,
    PruneConfig,
    dump_dag,
    generate_synthetic_dag,
    load_dag,
    prune_dag,
    read_dag,
    read_pruned_dag,
    write_dag,
)
from .length import (
    LcConfig,
    LengthPredictor,
    default_upper_bound,
    dfs_viterbi,
    fit_length_predictor,
    length_cost_table,
    length_penalty,
    load_length_predictor,
    predict_target_length,
    save_length_predictor,
)
from .metrics import (
    EvalRecord,
    EvalVocabulary,
    brevity_penalty,
    build_eval_vocabulary,
    compute_report,
    exact_occurrence_error_rate,
    neologism_rate,
    slot_error_rate,
)
from .result import (
    STATUS_EMPTY,
    STATUS_EMPTY_INTERSECTION,
    STATUS_INFEASIBLE,
    STATUS_OK,
    DecodeResult,
)
from .tokens import TokenTable, load_token_table, read_token_table, write_token_table
from .wfsa import (
    EPSILON,
    SIGMA,
    Arc,
    Wfsa,
    dag_to_wfsa,
    determinize_min,
    dump_wfsa,
    has_accepting_path,
    intersect,
    load_wfsa,
    rm_epsilon,
    shortest_path,
    string_cost,
    topological_sort,
)

__version__ = "0.1.0"
