"""Quantum-eraser style measurements on entangled neutral kaon pairs:
closed-form probabilities, active/passive decay-mode reconstruction, Monte
Carlo event generation and estimators."""

from .core import (Observable, Outcome, PhysicalConstants, Procedure,
                   SingleKaonState, SingularStateError, beam_norm,
                   evolution_factors, make_state)
from .decay import (CHANNEL_OUTCOME, OUTCOME_CHANNEL, AmplitudeModel,
                    DecayChannel, build_amplitude_model, decay_width,
                    joint_decay_rate, mixed_active_passive_prob,
                    mixed_decay_rate, pair_beam_norm, passive_joint_prob)
from .eventfile import read_events, write_events
from .pairs import (JointProjector, TwoKaonState, closed_form_joint,
                    delayed_choice_norms, joint_projective_prob,
                    normalized_pair, pair_visibility)
from .sim import (RNG_SCHEME, Binning, Estimate, EventSet, ExperimentKind,
                  FitRow, SimConfig, estimate_probs, fit_visibility,
                  run_experiment)
from .single import (MisidWindow, lifetime_probs, misid_probs,
                     passive_single_prob, single_decay_rate,
                     strangeness_probs, visibility_single)

__version__ = "0.1.0"
