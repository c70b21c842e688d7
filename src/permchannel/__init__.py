"""Zero-error communication through permutation channels.

Counting (classical, ancilla-free quantum, ancilla-assisted), explicit
cyclic encoding bases, character-table oracles, and exhaustive zero-error
certification, all at desk scale.
"""

from .channel import (
    ZeroErrorReport,
    decode_classical,
    dense_coding_summary,
    verify_classical,
    verify_zero_error,
)
from .characters import (
    CharacterTable,
    FSIndicators,
    MultiplicityVector,
    ambient_multiplicities,
    character_table,
    frobenius_schur_indicators,
    is_totally_orthogonal,
    isotypic_projector,
    na_oracle,
    nq_oracle,
    unit_root,
)
from .counting import (
    AsymptoticEstimate,
    CountReport,
    asymptotic_estimate,
    count_ancilla_polya,
    count_classical_burnside,
    count_cyclic,
    count_dihedral,
    count_quantum_totally_orthogonal,
    count_report,
    count_symmetric,
    cycle_index_symmetric,
    partitions,
    series_coefficient_nq,
    symmetric_class_size,
)
from .encoding import MessageBasis, encode_message, message_basis_cyclic
from .perms import (
    ColoredString,
    ConjugacyClass,
    Orbit,
    Permutation,
    PermutationGroup,
    conjugacy_classes,
    cycle_count,
    cycle_type,
    generate_group,
    load_group_file,
    make_named_group,
    orbit_labels,
    orbits,
    parse_group_file,
    square_root_count,
    stabilizer_orders,
)

__version__ = "0.1.0"
