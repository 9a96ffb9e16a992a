"""Structure-grounded retrieval over function-call dependency graphs.

The package turns a corpus of annotated example solutions into a directed
graph of knowledge-code nodes plus semantic I/O nodes, then answers
natural-language questions by finding dependency paths between the
question's input and output tags and packaging the functions and
knowledge along those paths as context.
"""

from .baselines import (
    EvalReport,
    GoldAnnotation,
    LexicalRanker,
    RetrievalScore,
    VectorStore,
    evaluate,
    load_gold,
    load_vectors,
    retrieve_topk,
    score_retrieval,
)
from .context import ContextBundle, assemble_context, render_prompt_block
from .corpus import (
    Corpus,
    CorpusEntry,
    IoDecl,
    IoSpec,
    load_corpus,
    normalize_label,
)
from .graph import (
    CALL,
    FEEDS,
    INPUT,
    OUTPUT,
    YIELDS,
    DependencyGraph,
    Edge,
    GraphReport,
    IoNode,
    KnowledgeCodeNode,
    assemble_raw_graph,
    build_graph,
    deserialize,
    insert_io_nodes,
    merge_identical,
    serialize,
    to_dot,
    validate_graph,
)
from .parser import (
    FunctionDef,
    TraceFragment,
    build_trace_fragment,
    extract_functions,
)
from .retriever import (
    DependencyPath,
    RetrievalLimits,
    RetrievalResult,
    find_paths,
    retrieve,
    retrieved_kc_names,
)
from .tagger import TagSet, TagVocabulary, build_vocabulary, extract_tags, load_aliases

__version__ = "0.1.0"
