"""The named signature set used across the generation pipeline.

Field names and their order are wire-format contracts; the descriptions are
documentation rendered into each prompt. Access signatures via ``get(name)``
or the module-level ``SIGNATURES`` registry.
"""

from __future__ import annotations

from divgen.providers.signature import Field, PromptSignature

_REASONING = Field("reasoning", "Step-by-step analysis supporting the final answer.")


def _as_field(spec: Field | tuple[str, str]) -> Field:
    return spec if isinstance(spec, Field) else Field(*spec)


def _sig(name: str, objective: str, inputs: list, outputs: list) -> PromptSignature:
    return PromptSignature(
        name=name,
        objective=objective,
        input_fields=tuple(_as_field(f) for f in inputs),
        output_fields=tuple(_as_field(f) for f in outputs),
    )


def _queries(suffix: str = "diverse natural language query") -> list[tuple[str, str]]:
    ordinals = ["first", "second", "third", "fourth", "fifth"]
    return [(f"query_{i + 1}", f"{ordinals[i]} {suffix}") for i in range(5)]


_PARAM_CORE: list[tuple[str, str]] = [
    ("parameter_name", "Name of the parameter."),
    ("parameter_description", "What this parameter does."),
    ("parameter_type", "Declared data type of the parameter."),
    ("function_name", "Function this parameter belongs to."),
    ("function_description", "What that function does."),
    ("other_parameter_values", "Values already chosen for the function's other parameters."),
]

_PARAM_TAIL: list[tuple[str, str]] = [
    ("existing_values", "Values previously committed for this parameter's group."),
    ("parameter_group_context", "Summary of the semantic group this parameter belongs to."),
    ("previous_failures", "What went wrong in earlier attempts, or 'None'."),
]

_SEQ_CONTEXT: list[tuple[str, str]] = [
    ("return_value", "JSON return value this function will produce; the value chosen"
                     " here must stay cohesive with it since the next call consumes it."),
    ("next_api_parameters", "JSON parameter values of the next function in the chain."),
    ("later_api_parameters", "JSON array of parameter maps for functions later in the chain."),
]

_PARALLEL_CONTEXT: list[tuple[str, str]] = [
    ("parallel_context_parameters", "JSON parameter maps already generated for the other"
                                    " functions invoked in parallel; reuse values where it"
                                    " is logically appropriate."),
]

_GEN_VALUE = ("generated_value", "The single generated value. Return only the value itself.")
_GEN_VALUES = ("generated_values", "JSON list of distinct feasible values, each matching the"
                                   " parameter description and differing from existing values."
                                   " Return only the JSON list.")
_IS_VALID = ("is_valid", "YES or NO.")
_IS_REASONABLE = ("is_reasonable", "YES or NO.")


SIGNATURES: dict[str, PromptSignature] = {}


def _register(sig: PromptSignature) -> PromptSignature:
    SIGNATURES[sig.name] = sig
    return sig


# --- function selection ----------------------------------------------------

VALIDATE_SEQUENTIAL_SCHEMA_COMPATIBILITY = _register(_sig(
    "ValidateSequentialSchemaCompatibility",
    "Decide whether these function schemas allow a true sequential execution chain,"
    " where each later call can and must consume information produced by the one before it,"
    " before any parameter values are generated.",
    [("api_schemas", "JSON array of function schemas in proposed execution order.")],
    [_REASONING,
     ("is_compatible", "YES if later functions can and must depend on earlier outputs;"
                       " NO otherwise. Return only YES or NO.")],
))

# --- argument value generation ----------------------------------------------

GENERATE_MULTIPLE_STRING_PARAMETERS = _register(_sig(
    "GenerateMultipleStringParameters",
    "Produce many distinct, feasible string values for one parameter in a single call.",
    _PARAM_CORE + _PARAM_TAIL[:2] + [("num_candidates", "How many distinct values to produce.")]
    + _PARAM_TAIL[2:],
    [_REASONING, _GEN_VALUES],
))

GENERATE_MULTIPLE_NUMERICAL_PARAMETERS = _register(_sig(
    "GenerateMultipleNumericalParameters",
    "Produce many distinct, feasible numerical values for one parameter in a single call.",
    _PARAM_CORE + _PARAM_TAIL[:2] + [("num_candidates", "How many distinct values to produce.")]
    + _PARAM_TAIL[2:],
    [_REASONING, _GEN_VALUES],
))

GENERATE_OTHER_PARAMETER = _register(_sig(
    "GenerateOtherParameter",
    "Produce one feasible value for a structured (list/object) parameter.",
    _PARAM_CORE + _PARAM_TAIL,
    [_GEN_VALUE],
))

GENERATE_COHESIVE_STRING_PARAMETER = _register(_sig(
    "GenerateCohesiveStringParameter",
    "Produce one string value that fits logically alongside the other functions"
    " invoked in parallel.",
    _PARAM_CORE + _PARALLEL_CONTEXT + _PARAM_TAIL,
    [_REASONING, _GEN_VALUE],
))

GENERATE_COHESIVE_NUMERICAL_PARAMETER = _register(_sig(
    "GenerateCohesiveNumericalParameter",
    "Produce one numerical value that fits logically alongside the other functions"
    " invoked in parallel.",
    _PARAM_CORE + _PARALLEL_CONTEXT + _PARAM_TAIL,
    [_REASONING, _GEN_VALUE],
))

GENERATE_COHESIVE_OTHER_PARAMETER = _register(_sig(
    "GenerateCohesiveOtherParameter",
    "Produce one structured (list/object) value that fits logically alongside the"
    " other functions invoked in parallel.",
    _PARAM_CORE + _PARALLEL_CONTEXT + _PARAM_TAIL,
    [_GEN_VALUE],
))

GENERATE_SEQUENTIAL_COHESIVE_STRING_PARAMETER = _register(_sig(
    "GenerateSequentialCohesiveStringParameter",
    "Produce one string value for a function inside a sequential chain, prioritizing"
    " cohesion with the function's return value and the downstream calls.",
    _PARAM_CORE + _SEQ_CONTEXT + _PARAM_TAIL,
    [_REASONING, _GEN_VALUE],
))

GENERATE_SEQUENTIAL_COHESIVE_NUMERICAL_PARAMETER = _register(_sig(
    "GenerateSequentialCohesiveNumericalParameter",
    "Produce one numerical value for a function inside a sequential chain, prioritizing"
    " cohesion with the function's return value and the downstream calls.",
    _PARAM_CORE + _SEQ_CONTEXT + _PARAM_TAIL,
    [_REASONING, _GEN_VALUE],
))

GENERATE_SEQUENTIAL_COHESIVE_OTHER_PARAMETER = _register(_sig(
    "GenerateSequentialCohesiveOtherParameter",
    "Produce one structured (list/object) value for a function inside a sequential"
    " chain, prioritizing cohesion with the function's return value and the downstream calls.",
    _PARAM_CORE + _SEQ_CONTEXT + _PARAM_TAIL,
    [_GEN_VALUE],
))

GENERATE_RETURN_VALUE = _register(_sig(
    "GenerateReturnValue",
    "Produce a realistic return value for a function whose output feeds the next call"
    " in a sequential chain.",
    [("api_name", "Name of the function."),
     ("api_description", "What the function does."),
     ("return_type_schema", "JSON schema of the return value."),
     ("next_api_name", "Name of the next function in the chain."),
     ("next_api_description", "What the next function does."),
     ("next_api_parameters_schema", "JSON parameter schema of the next function."),
     ("next_api_parameters_values", "JSON parameter values already chosen for the next function."),
     ("previous_failures", "What went wrong in earlier attempts, or 'None'.")],
    [_REASONING,
     ("return_value", "JSON return value matching the schema and consistent with the"
                      " function's purpose and the next call's needs. Return only JSON.")],
))

PARAMETER_SET_VALIDATOR = _register(_sig(
    "ParameterSetValidator",
    "Check that a complete set of parameter values forms a coherent, conflict-free call.",
    [("api_name", "Name of the function."),
     ("api_description", "What the function does."),
     ("full_parameter_schema", "JSON schema of every parameter."),
     ("selected_parameters", "JSON map of the chosen parameter values.")],
    [_REASONING, _IS_VALID],
))

PARTIAL_PARAMETER_SET_VALIDATOR = _register(_sig(
    "PartialParameterSetValidator",
    "Check that a partial set of parameter values is coherent and conflict-free."
    " Do NOT reject the set just because required parameters are missing; the omissions"
    " are intentional.",
    [("api_name", "Name of the function."),
     ("api_description", "What the function does."),
     ("full_parameter_schema", "JSON schema of every parameter."),
     ("provided_parameters", "JSON map of the parameter values that are present.")],
    [_REASONING, _IS_VALID],
))

VALIDATE_RETURN_VALUE = _register(_sig(
    "ValidateReturnValue",
    "Check that a return value is appropriate for a function inside a sequential chain:"
    " it must match the schema, fit the function's purpose, and be usable by the next call.",
    [("api_name", "Name of the function."),
     ("api_description", "What the function does."),
     ("return_type_schema", "JSON schema of the return value."),
     ("return_value", "The JSON return value to check."),
     ("api_parameters", "JSON parameter values used in the call."),
     ("next_api_name", "Name of the next function in the chain."),
     ("next_api_description", "What the next function does."),
     ("next_api_parameters", "JSON parameter values of the next function.")],
    [_REASONING, _IS_VALID],
))

VALIDATE_SEQUENTIAL_CHAIN = _register(_sig(
    "ValidateSequentialChain",
    "Check an entire sequential execution chain for coherence and strict sequential"
    " dependency: every call after the first must require information from the previous"
    " call's return value that the query alone cannot supply.",
    [("api_schemas", "JSON array of function schemas in execution order."),
     ("parameters_list", "JSON array of parameter maps, one per call."),
     ("return_values_list", "JSON array of return values, one per call except the last.")],
    [_REASONING, _IS_VALID],
))

# --- query generation --------------------------------------------------------

NO_API_QUERY_GENERATOR = _register(_sig(
    "NoAPIQueryGenerator",
    "Produce natural language requests answerable without calling any function.",
    [("dataset_guidance", "Sample queries from the dataset plus diversity guidance."),
     ("previous_attempts", "Earlier attempts with their judgements and rankings.")],
    [_REASONING] + _queries("diverse request answerable without any function call"),
))

SEQUENTIAL_QUERY_GENERATOR = _register(_sig(
    "SequentialQueryGenerator",
    "Produce natural language requests whose answer requires the given functions to run"
    " in order; describe the end goal without revealing the intermediate steps.",
    [("api_schemas", "JSON array of target function schemas in execution order."),
     ("target_parameters_list", "JSON array of parameter maps, one per call."),
     ("return_values_list", "JSON array of intermediate return values."),
     ("dataset_guidance", "Sample queries from the dataset plus diversity guidance."),
     ("previous_attempts", "Earlier attempts with their judgements and rankings.")],
    [_REASONING] + _queries(),
))

PARALLEL_QUERY_GENERATOR = _register(_sig(
    "ParallelQueryGenerator",
    "Produce natural language requests that require calling all the given functions"
    " together, with every parameter inferable from the request text alone.",
    [("api_schemas", "JSON array of target function schemas."),
     ("target_parameters_list", "JSON array of parameter maps, one per call."),
     ("dataset_guidance", "Sample queries from the dataset plus diversity guidance."),
     ("previous_attempts", "Earlier attempts with their judgements and rankings.")],
    [_REASONING] + _queries(),
))

MULTI_QUERY_GENERATOR = _register(_sig(
    "MultiQueryGenerator",
    "Produce several differently-shaped natural language requests that all justify one"
    " specific function call with the given parameter values.",
    [("api_schema", "Target function name, description, and parameter schema."),
     ("target_parameters", "JSON map of the exact parameter values to target."),
     ("dataset_guidance", "Sample queries from the dataset plus diversity guidance."),
     ("previous_attempts", "Earlier attempts with their judgements and rankings.")],
    [_REASONING] + _queries(),
))

MISSING_PARAMS_QUERY_GENERATOR = _register(_sig(
    "MissingParamsQueryGenerator",
    "Produce natural language requests that clearly need the given function but leave"
    " the listed required parameters unstated.",
    [("api_schema", "Target function name, description, and parameter schema."),
     ("provided_parameters", "JSON map of the parameter values the request does convey."),
     ("missing_parameters", "JSON list of required parameter names the request must omit."),
     ("dataset_guidance", "Sample queries from the dataset plus diversity guidance."),
     ("previous_attempts", "Earlier attempts with their judgements and rankings.")],
    [_REASONING] + _queries("diverse request that needs the function but omits the"
                            " listed parameters"),
))

SEQUENTIAL_QUERY_JUDGE = _register(_sig(
    "SequentialQueryJudge",
    "Decide whether a request reasonably justifies calling the given functions"
    " sequentially with the given parameters and intermediate return values: every call"
    " must be required, the first call's parameters must be inferable from the request,"
    " and later calls' parameters from the request or earlier returns.",
    [("query", "The request to judge."),
     ("api_schemas", "JSON array of target function schemas in execution order."),
     ("target_parameters_list", "JSON array of parameter maps, one per call."),
     ("return_values_list", "JSON array of intermediate return values.")],
    [_REASONING, _IS_REASONABLE],
))

PARALLEL_QUERY_JUDGE = _register(_sig(
    "ParallelQueryJudge",
    "Decide whether a request reasonably justifies calling all the given functions in"
    " parallel, with every parameter inferable from the query text alone.",
    [("query", "The request to judge."),
     ("api_schemas", "JSON array of target function schemas."),
     ("target_parameters_list", "JSON array of parameter maps, one per call.")],
    [_REASONING, _IS_REASONABLE],
))

API_QUERY_JUDGE = _register(_sig(
    "APIQueryJudge",
    "Decide whether a request reasonably justifies calling one specific function with"
    " the given parameter values.",
    [("query", "The request to judge."),
     ("api_schema", "Target function name, description, and parameter schema."),
     ("target_parameters", "JSON map of the parameter values.")],
    [_REASONING, _IS_REASONABLE],
))

MISSING_PARAMS_QUERY_JUDGE = _register(_sig(
    "MissingParamsQueryJudge",
    "Decide whether a request genuinely needs the given function while leaving the"
    " listed required parameters impossible to infer from the request text.",
    [("query", "The request to judge."),
     ("api_schema", "Target function name, description, and parameter schema."),
     ("provided_parameters", "JSON map of the parameter values the request conveys."),
     ("missing_parameters", "JSON list of required parameter names that must be absent.")],
    [_REASONING, _IS_REASONABLE],
))

DATASET_PATTERN_ANALYSIS = _register(_sig(
    "DatasetPatternAnalysis",
    "Inspect a sample of generated requests and identify patterns of homogeneity across"
    " semantic, pragmatic, syntactic, stylistic, and persona dimensions.",
    [("dataset_sample", "Sampled requests, one per line."),
     ("diversity_context", "What diversity signals currently look like.")],
    [_REASONING,
     ("pattern_analysis", "The homogeneity patterns found, one per line.")],
))

DIVERSITY_GUIDANCE_GENERATION = _register(_sig(
    "DiversityGuidanceGeneration",
    "Turn a homogeneity pattern analysis into concrete, actionable guidance for the"
    " next round of request generation.",
    [("dataset_sample", "Requests to diversify from, one per line."),
     ("pattern_analysis", "What to counteract in them.")],
    [_REASONING,
     ("diversity_guidance", "Actionable guidance, one instruction per line.")],
))

# --- distractor selection -----------------------------------------------------

BATCH_API_RELEVANCE_SCORER = _register(_sig(
    "BatchAPIRelevanceScorer",
    "Rate how plausibly each candidate function could answer the request, on a 1-5"
    " scale where 5 is a perfect match and 1 is unrelated.",
    [("query", "The user request."),
     ("apis", "JSON array of candidate functions with name, description, parameters."),
     ("target_api", "Name of the ground-truth target function, for reference.")],
    [_REASONING,
     ("scores", 'JSON array, one entry per candidate in input order:'
                ' {"api_name": str, "score": int (1-5), "reasoning": str}.')],
))

PARALLEL_API_RELEVANCE_SCORER = _register(_sig(
    "ParallelAPIRelevanceScorer",
    "Rate how plausibly each candidate function could serve the request alongside the"
    " given parallel target functions, on a 1-5 scale.",
    [("query", "The user request."),
     ("apis", "JSON array of candidate functions with name, description, parameters."),
     ("target_apis", "JSON array of the target function names called in parallel.")],
    [_REASONING,
     ("scores", 'JSON array, one entry per candidate in input order:'
                ' {"api_name": str, "score": int (1-5), "reasoning": str}.')],
))

CONSTRUCT_SEQUENTIAL_INVOCATION = _register(_sig(
    "ConstructSequentialInvocation",
    "Construct the next function invocation in a sequential chain answering the request,"
    " or an empty string when no valid next call exists.",
    [("query", "The user request."),
     ("available_apis", "JSON array of every function schema available for the chain."),
     ("invocations_up_to_this_point", "JSON array of invocation strings already made, in"
                                      " order; each is 'func_name(param=value, ...)'."),
     ("return_values_up_to_this_point", "JSON array of return values from the calls"
                                        " already made, in order.")],
    [_REASONING,
     ("next_api", "The next invocation as 'func_name(param=value, ...)', using the exact"
                  " function name as provided. Return '' if none. Return only the"
                  " invocation string.")],
))

VALIDATE_SEQUENTIAL_INVOCATION = _register(_sig(
    "ValidateSequentialInvocation",
    "Decide whether a sequential chain of invocations correctly and completely answers"
    " the request, with later calls consuming earlier calls' outputs.",
    [("query", "The user request."),
     ("invocation_apis", "JSON array of the invocation strings forming the chain."),
     ("api_schemas", "JSON array of the schemas of the invoked functions."),
     ("return_values_list", "JSON array of return values from the calls, in order.")],
    [_REASONING, _IS_VALID],
))

CONSTRUCT_PARALLEL_INVOCATION = _register(_sig(
    "ConstructParallelInvocation",
    "Select a subset of the available functions that together answer the request when"
    " called in parallel, and write out their full invocations.",
    [("query", "The user request."),
     ("available_apis", "JSON array of every function schema available.")],
    [_REASONING,
     ("invocation_apis", "Invocation list formatted as '[func_name1(param=value, ...),"
                         " func_name2(...)]', using the exact function names as provided."
                         " Return '[]' if no valid invocation exists. Return only the list.")],
))

VALIDATE_PARALLEL_INVOCATION = _register(_sig(
    "ValidateParallelInvocation",
    "Decide whether a parallel invocation correctly answers the request: every function"
    " relevant, every parameter inferable from the request text, no sequential dependency.",
    [("query", "The user request."),
     ("invocation_apis", "The parallel invocation list to validate."),
     ("api_schemas", "JSON array of the schemas of the invoked functions.")],
    [_REASONING, _IS_VALID],
))

# --- evaluation ----------------------------------------------------------------

TOOL_CALL_EQUIVALENCE = _register(_sig(
    "ToolCallEquivalence",
    "Decide whether two tool calls are semantically equivalent: same tool, parameter"
    " values that mean the same thing (e.g. a city and its common abbreviation), and"
    " the same result for the user.",
    [("user_query", "The user's original request."),
     ("tool_schema", "Complete tool schema: name, description, parameters."),
     ("ground_truth_call", "The reference tool call (JSON)."),
     ("predicted_call", "The tool call to evaluate (JSON).")],
    [_REASONING,
     ("equivalent", "YES if semantically equivalent, NO otherwise.")],
))


def get(name: str) -> PromptSignature:
    try:
        return SIGNATURES[name]
    except KeyError:
        raise KeyError(f"unknown signature {name!r}") from None


def identify(prompt: str) -> str | None:
    """Best-effort: which catalog signature produced this rendered prompt."""
    for name, sig in SIGNATURES.items():
        if sig.objective in prompt:
            return name
    return None
