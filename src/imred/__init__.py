"""Toolkit for the intuitionistic modal logics FS and MIPC.

Formula language over {variables, false, &, |, ->, <>, []}; finite
birelational Kripke semantics with a model checker; a polynomial
translation of either logic into its own positive one-variable
fragment; and a bounded countermodel search that serves as a
refutation-only oracle for the translation at desk scale.
"""

from .formula import (And, BOTTOM, Box, Diamond, Formula, Implies, Or, Var,
                      box_chain_le, clear_caches, diamond_chain_le,
                      is_positive, length, mdepth, substitute,
                      replace_bottom, tree_size, varset)
from .reduction import (OneVarSubstitution, PositiveEmbedding,
                        TranslationReport, base_length, family_formula,
                        ground_formulas, level_count, positive_embed,
                        reduce_to_one_var, spiral_cell, spiral_index,
                        spiral_walk, stability_level, star, target_level)
from .search import (ConsistencyReport, RefutationResult, SearchBudget,
                     SearchStats, check_translation_consistency,
                     classify_pair, find_countermodel)
from .semantics import (FS, MIPC, FiniteFSModel, Violation, eval_formula,
                        eval_formula_plain, truth_table, validate_model)
from .syntax import (FormulaSyntaxError, ModelSyntaxError,
                     ModelValidationError, SourceSpan, parse_certificate,
                     parse_formula, parse_model, print_certificate,
                     print_formula, print_model)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
