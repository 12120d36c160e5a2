"""divgen: diversity-optimized synthetic data generation for function-calling agents.

The package builds training examples of the form (natural-language query,
ground-truth function invocations, distractor function set) over a user-supplied
function library, greedily maximizing argument-value diversity (cluster entropy)
and linguistic diversity (an eight-metric battery fused with reciprocal rank
fusion). All LLM and embedding dependencies sit behind pluggable providers, so
the whole pipeline runs deterministically with the bundled offline providers.
"""
