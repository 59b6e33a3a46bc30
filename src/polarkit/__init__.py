"""Polarization analysis and generic-kernel polar codes over prime fields.

The package is organized around one object: a square kernel matrix M over
F_q whose Kronecker powers drive channel polarization.  Modules:

- ``fqlin``       exact dense linear algebra mod a prime
- ``channels``    symmetric memoryless channels as transition tables
- ``entropy``     exact conditional entropies of kernel transforms
- ``polarlab``    erasure polynomials and martingale polarization studies
- ``kernelscope`` structural kernel analysis (mixing, containment, distance)
- ``codec``       polar encoder / successive-cancellation decoder
- ``cli``         command-line front end
"""

__version__ = "0.1.0"

from .fqlin import FqMatrix, field_inverse, kron, tensor_apply
from .channels import Channel, make_erasure, make_qsc, capacity
from .entropy import SymbolJoint, cond_entropy, polar_entropies
from .polarlab import erasure_polynomials, evolve_tree, polarization_report
from .kernelscope import is_mixing, left_kernel_distance
from .codec import PolarCode, construct_code, encode, sc_decode, fer_experiment

__all__ = [
    "__version__",
    "FqMatrix",
    "field_inverse",
    "kron",
    "tensor_apply",
    "Channel",
    "make_erasure",
    "make_qsc",
    "capacity",
    "SymbolJoint",
    "cond_entropy",
    "polar_entropies",
    "erasure_polynomials",
    "evolve_tree",
    "polarization_report",
    "is_mixing",
    "left_kernel_distance",
    "PolarCode",
    "construct_code",
    "encode",
    "sc_decode",
    "fer_experiment",
]
