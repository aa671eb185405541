"""Exact classification toolkit for rank-2 pole-order-1 connection families
over the 2-dimensional nilpotent base germ, with Euler-field analysis."""

from .scalars import S, Scalar
from .series import AffinePoly1, Laurent, TSeries, ZTSeries
from .connmat import (
    ConstMat,
    GaugeMap,
    Mat2,
    OriginRestriction,
    TEStruct,
    apply_gauge,
    compose_gauges,
    flatness_residuals,
    induced_euler,
    restrict_origin,
)
from .formalnf import (
    Classification,
    NormalFormId,
    PreNormalForm,
    build_normal_form,
    build_prenormal_struct,
    formal_iso_decision,
    formal_normal_form,
    solve_b2_extensions,
    to_prenormal,
)
from .origin import (
    BirkhoffData,
    birkhoff_invariants,
    birkhoff_iso_decision,
    birkhoff_reduce,
    cyclic_fuchs,
    irreducibility_check,
    is_elementary,
    normalize_birkhoff,
    restrict_prenormal,
)
from .malgrange import (
    MalgrangeState,
    assign_c1,
    classify_holomorphic,
    holo_normal_form,
    holo_replay,
    malgrange_connection,
    malgrange_xy,
)
from .euler import (
    EulerField,
    EulerNormalForm,
    euler_normal_form,
    euler_orbit_decision,
    is_euler,
    realizable_by_te,
)
from .odekit import (
    RiccatiSolution,
    check_convolution_inequality,
    solve_linear_t_ode,
    solve_riccati_unique_c,
    solve_third_der,
)

__version__ = "0.1.0"
