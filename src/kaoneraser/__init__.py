"""Quantum-eraser style measurements on entangled neutral kaon pairs:
closed-form probabilities, active/passive decay-mode reconstruction, Monte
Carlo event generation and estimators."""

from .core import (EIGENSTATES, Observable, Outcome, PhysicalConstants,
                   Procedure, pair_beam_norm)
from .decay import (CHANNEL_OUTCOME, OUTCOME_CHANNEL, AmplitudeModel,
                    DecayChannel, build_amplitude_model, decay_width,
                    joint_decay_rate, mixed_active_passive_prob,
                    mixed_decay_rate, passive_joint_prob,
                    passive_single_prob)
from .estimate import (Binning, Estimate, FitRow, estimate_probs,
                       fit_visibility)
from .eventfile import read_events, write_events
from .pairs import (JointProjector, TwoKaonState, closed_form_joint,
                    delayed_choice_norms, joint_projective_prob,
                    normalized_pair, pair_visibility, strangeness_probs)
from .sim import (RNG_SCHEME, EventSet, ExperimentKind, SimConfig,
                  misid_probs, run_experiment)

__version__ = "0.1.0"
