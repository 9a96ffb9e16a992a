"""Structure-grounded retrieval over function-call dependency graphs.

The package turns a corpus of annotated example solutions into a directed
graph of knowledge-code nodes plus semantic I/O nodes, then answers
natural-language questions by finding dependency paths between the
question's input and output tags and packaging the functions and
knowledge along those paths as context.

Each exported name is imported from its module on first use (PEP 562),
so a command pays at import only for the modules it runs.
"""

from importlib import import_module

# Exported name -> the module that defines it.
_EXPORTS = {name: module for module, names in {
    "baselines": "EvalReport GoldAnnotation LexicalRanker RetrievalScore VectorStore evaluate"
                 " load_gold load_vectors retrieve_topk score_retrieval",
    "context": "ContextBundle assemble_context render_prompt_block",
    "corpus": "Corpus CorpusEntry IoDecl IoSpec load_corpus normalize_label",
    "graph": "CALL FEEDS INPUT OUTPUT YIELDS DependencyGraph Edge GraphReport IoNode"
             " KnowledgeCodeNode assemble_raw_graph build_graph deserialize insert_io_nodes"
             " merge_identical serialize to_dot validate_graph",
    "parser": "FunctionDef TraceFragment build_trace_fragment extract_functions",
    "retriever": "DependencyPath RetrievalLimits RetrievalResult find_paths retrieve"
                 " retrieved_kc_names",
    "tagger": "TagSet TagVocabulary build_vocabulary extract_tags load_aliases",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{module}", __name__), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
