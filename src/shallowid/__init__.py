"""Toolkit for two-layer networks: irreducibility and equivalence decisions,
finite sampling-plan construction, exact relu recovery from samples,
point-set adversaries, and sigmoid/tanh identification checks."""

from .tolerances import DEFAULT_TOL, ToleranceConfig
from .errors import (AdmissibilityError, ConstructionError, HypothesisError, InputError,
                     InvariantError, ParseError, ReconstructionError, RecoveryError,
                     SizeError, ToolkitError)
from .net_core import (Activation, EquivalenceCertificate, GroupedReLU, Hyperplane,
                       Neuron, PairedEntry, ShallowNet, admissibility_violations,
                       canonical_hyperplane, deserialize, evaluate, evaluate_many,
                       group, make_net, serialize, test_equivalent)
from .numerics import rank, solve_least_squares
from .relu_structure import ReductionWitness, reduce_fully, reduce_once, test_reducible
from .relu_sampling import (FeasibleLineSet, LabeledSamples, Line, SamplePlan,
                            build_feasible_lines, build_sample_plan,
                            extract_breakpoints, reconstruct, recover_hyperplanes,
                            sample_values)
from .relu_adversary import AdversarialPair, AdversaryParams, build_pair
from .analytic_id import (AnalyticSamplePlan, ExpSumExpansion, FullSparkFrame,
                          IdentificationReport, build_analytic_plan, cleared_form_value,
                          exp_sum_expansion, sigmoid_form, vandermonde_frame,
                          verify_identification)

__version__ = "0.1.0"
