"""Prime-pair divisibility of binomial coefficients and subgroup indices.

The central question: given n, which prime pairs (p, r) divide every
nontrivial binomial coefficient C(n, k), and equivalently every index of a
maximal subgroup of the alternating group A_n?  The package provides exact
carry-based divisibility tests, staged batch scanning over integer ranges,
smooth-number density estimates, and exhaustive checks on small permutation
groups.
"""

from .arith import (
    Factorization,
    PrimePower,
    digit_sum,
    digits,
    factorize,
    is_prime,
    is_prime_power,
    largest_prime_power_below,
    largest_prime_power_divisor,
    primes_upto,
)
from .kummer import (
    carries_add,
    equipartition_has_carry,
    prime_divides_equipartition,
    valuation_binomial,
)
from .conditions import (
    ConditionWitness,
    ObstructionSet,
    condition1_holds,
    condition2_direct,
    obstructions,
    primitive_index_divisible,
    witness_for,
)
from .permgroup import (
    CycleType,
    Permutation,
    StabilizerChain,
    check_condition4_pair,
    check_condition5,
    class_members,
    find_condition5_failure_witness,
    group_order,
    parse_cycles,
)
from .density import (
    PsiCount,
    density_bound_report,
    dickman_rho,
    psi_count,
)
from .scan import (
    GapReport,
    Histogram,
    ScanRecord,
    ScanSummary,
    direct_search,
    failure_histogram,
    iter_scan,
    prime_gap_stats,
    scan_range,
    scan_with_two,
    sieve_pair_for,
)

__version__ = "0.1.0"
