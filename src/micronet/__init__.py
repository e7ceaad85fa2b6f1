"""Low-cost image classification networks built from micro-factorized
convolutions and dynamic shift-max activations, with static cost and
structure analysis tooling."""

from .analysis import (BUDGETS, CostReport, check_budget, count_costs,
                       sweep_tradeoff, verify_model)
from .dyshiftmax import DyShiftMax
from .microfac import (MicroFacDepthwise, MicroFacPointwise, adaptive_groups,
                       fit_groups, pick_group_pair)
from .models import (BlockSpec, ModelSpec, Network, VARIANTS, build_model,
                     model_spec)
from .module import Context, Module
from .tensor import ConvSpec, Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "BUDGETS", "BlockSpec", "Context", "ConvSpec", "CostReport",
    "DyShiftMax", "MicroFacDepthwise", "MicroFacPointwise", "ModelSpec",
    "Module", "Network", "Tensor", "VARIANTS", "adaptive_groups",
    "build_model", "check_budget", "count_costs", "fit_groups", "model_spec",
    "no_grad", "pick_group_pair", "sweep_tradeoff", "verify_model", "__version__",
]
