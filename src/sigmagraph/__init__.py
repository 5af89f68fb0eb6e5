"""Directed class-partition graphs of finite permutation groups.

The library builds three digraphs on the classes touching a group's order
(hawkes, hall, vm), evaluates the structural predicates they encode
(solubility, nilpotency, dispersion, closure, length), and verifies a fixed
set of statements relating the two on a corpus of small groups.
"""

from .errors import (CrossCheckError, DomainError, GroupInputError,
                     ResourceLimitError, SigmaGraphError)
from .graphs import (SigmaGraph, build_hall, build_hawkes, build_vm,
                     graphs_equal, has_circuit, has_loop, is_subgraph,
                     isolated_vertices, to_dot, to_json, union)
from .group import (DEFAULT_LIMITS, ChiefSeries, EngineLimits, PermGroup,
                    QuotientGroup, Subgroup, all_subgroups, centralizer,
                    centralizer_of_factor, chief_series, core_series_subgroup,
                    hall_subgroups, is_normal, maximal_subgroups,
                    normal_subgroups, normalizer, quotient, subgroup, sylow,
                    two_generated_subgroups)
from .perm import Permutation
from .predicates import (SchmidtShape, SigmaLengthProfile, f_class_subgroup,
                         is_class_nilpotent, is_critical, is_nilpotent,
                         is_pi_closed, is_schmidt, is_sigma_dispersive,
                         is_sigma_nilpotent, is_sigma_soluble,
                         schmidt_decomposition, schmidt_types, sigma_length)
from .sigma import (ATOMIC, PiSet, SigmaClass, SigmaPartition, parse_sigma_spec,
                    pi_part, prime_factors, primes_of, sigma_coprime,
                    sigma_of_group, sigma_of_int)
from .verify import (ALL_STATEMENTS, CheckResult, VerificationReport,
                     factorization_fixtures, make_report, run_corpus_sweep,
                     verify_prop_1_2, verify_prop_1_9, verify_prop_1_11,
                     verify_thm_1_4, verify_thm_1_7, verify_thm_1_12)
from .zoo import ZooEntry, build_by_tag, corpus, standard_partitions, zoo

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
