"""ncstrip: exact combinatorics of noncrossing partitions, Fuss-Catalan
paths, skew-shape strips, parking functions, and the bijections between
them, everything in arbitrary-precision integer arithmetic.
"""

from .partitions import (
    as_partition,
    binomial,
    catalan,
    factorial,
    format_partition,
    fuss_catalan,
    multiplicity_product,
    parse_partition,
    partitions_of,
    partitions_with_weight_at_most,
    weight,
)
from .shapes import (
    RStrip,
    SkewShape,
    enumerate_horizontal_strips,
    enumerate_r_strips,
    format_shape,
    is_r_strip,
    parse_shape,
    path_from_strip,
    rectangle,
    stretched_staircase,
    strip_from_path,
    strip_type,
)
from .lattice_paths import (
    enumerate_fuss_binomial,
    enumerate_fuss_catalan,
    fb_type,
    fc_reduced_type,
    fc_type,
)
from .noncrossing_a import (
    count_by_reduced_type,
    count_by_type,
    enumerate_k_divisible,
    format_blocks,
    is_noncrossing,
    reduced_type_a,
    type_a,
)
from .noncrossing_b import (
    antipodal_block,
    count_by_type_b,
    enumerate_nc_b,
    is_noncrossing_b,
    type_b,
)
from .bijections import (
    noncrossing_to_path,
    path_to_noncrossing,
    path_to_signed_noncrossing,
    rectangle_path_to_strip,
    rectangle_strip_to_path,
    signed_noncrossing_to_path,
    staircase_path_to_strip,
    staircase_strip_to_path,
)
from .parking import (
    enumerate_parking_functions,
    enumerate_primitive,
    enumerate_shape_parking_functions,
    is_parking_function,
    is_primitive,
    pf_type,
    primitive_pf_to_ncp,
)
from .expansions import (
    HExpansion,
    expand_skew,
    expand_skew_by_columns,
    expansion_items,
    fuss_a_expansion_formula,
    fuss_b_expansion_formula,
    parking_expansion,
    top_homogeneous_part,
)

__version__ = "0.1.0"
