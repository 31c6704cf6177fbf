"""Stage identifiers shared by the prompt templates and the gateway."""

import enum


class StageKind(enum.Enum):
    DETECT_EVENTS = "detect_events"
    SENTENCE_TO_LOGIC = "sentence_to_logic"
    REFINE_SYNTAX = "refine_syntax"
    ROUGH_INFERENCE = "rough_inference"
    CONSTRUCT_PROOF = "construct_proof"
    REFINE_EXPLANATION = "refine_explanation"
