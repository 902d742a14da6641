"""tableprep: question-aware table preparation pipelines for table QA.

Parse and execute table operator pipelines produced by a language model,
merge multiple candidate pipelines by trie consensus, score pipelines with
self-supervised rewards, gate reward groups for stable policy optimization,
and answer questions with adaptive rollback when preparation loses data.

The package re-exports nothing; import the module that defines a name, such
as ``tableprep.engine`` or ``tableprep.runner``.
"""

__version__ = "0.1.0"
