"""Input checks of the public constructors and readers: one case per message."""

import math

import numpy as np
import pytest

from bellspace.cli import config_from_dict
from bellspace.config import ConfigError
from bellspace.feasibility import CorrelationTarget
from bellspace.lhv import BellCertificate, CorrelationEstimate
from bellspace.qkd import ChshPair, QkdConfig, QuantumLocalizedChannel, RoundLog, decide_verdict
from bellspace.spatial import (
    BoxRegion,
    GaussianPacket,
    expanded_width,
    g_factor_quadrature,
    packet_probability_in_box,
    product_density,
    separated_gaussian_setup,
)

CHANNEL = QuantumLocalizedChannel(g=0.9)
SETUP = separated_gaussian_setup(1.0, (20.0, 0.0, 0.0))
SETUP_BLOCK = {"width_param": 1.0, "separation": [20.0, 0.0, 0.0]}


def quadrature(**kwargs):
    density = product_density(SETUP.packet_a, SETUP.packet_b)
    return g_factor_quadrature(density, SETUP.region_a, SETUP.region_b, **kwargs)


def channel_config(channel: dict):
    return config_from_dict({"channel": channel})


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: CorrelationTarget((0.0, 1.0), (0.0,), [[0.5], [math.nan]]),
                     ValueError, "matrix entries must be finite", id="target-nan"),
        pytest.param(lambda: BellCertificate(np.array([[1.0, math.inf]])),
                     ValueError, "coefficients must be a finite 2-d matrix", id="certificate-inf"),
        pytest.param(lambda: BellCertificate(np.array([1.0, 1.0])),
                     ValueError, "coefficients must be a finite 2-d matrix", id="certificate-1d"),
        pytest.param(lambda: BellCertificate(np.zeros((0, 3))),
                     ValueError, "need at least one setting per wing", id="certificate-empty"),
        pytest.param(lambda: BellCertificate(np.zeros((13, 12))),
                     ValueError, "m \\+ n = 25 exceeds the cap 24", id="certificate-oversized"),
        pytest.param(lambda: BoxRegion.centered_cube((0.0, 0.0, 0.0), 0.0),
                     ValueError, "half_width must be positive", id="cube-half-width"),
        pytest.param(lambda: BoxRegion.centered_cube((0.0, 0.0, 0.0), math.nan),
                     ValueError, "half_width must be positive", id="cube-half-width-nan"),
        pytest.param(lambda: expanded_width(math.nan, 1.0, 1.0, 1.0),
                     ValueError, "epsilon, mass and hbar must be positive", id="width-epsilon-nan"),
        pytest.param(lambda: expanded_width(1.0, math.nan, 1.0, 1.0),
                     ValueError, "epsilon, mass and hbar must be positive", id="width-mass-nan"),
        pytest.param(lambda: expanded_width(1.0, 1.0, 1.0, math.nan),
                     ValueError, "epsilon, mass and hbar must be positive", id="width-hbar-nan"),
        pytest.param(lambda: expanded_width(1.0, 1.0, math.nan, 1.0),
                     ValueError, "time must be nonnegative, got nan", id="width-time-nan"),
        pytest.param(lambda: packet_probability_in_box(SETUP.packet_a, SETUP.region_a, math.nan),
                     ValueError, "time must be nonnegative, got nan", id="box-probability-time-nan"),
        pytest.param(lambda: GaussianPacket((0.0, 0.0, 0.0), math.nan),
                     ValueError, "width_param, mass and hbar must be positive",
                     id="packet-width-nan"),
        pytest.param(lambda: GaussianPacket((0.0, 0.0, 0.0), 1.0, mass=math.nan),
                     ValueError, "width_param, mass and hbar must be positive", id="packet-mass-nan"),
        pytest.param(lambda: GaussianPacket((0.0, 0.0, 0.0), 1.0, hbar=math.nan),
                     ValueError, "width_param, mass and hbar must be positive", id="packet-hbar-nan"),
        pytest.param(lambda: quadrature(tol=0.0),
                     ValueError, "tol must be positive", id="quadrature-tol"),
        pytest.param(lambda: quadrature(tol=math.nan),
                     ValueError, "tol must be positive", id="quadrature-tol-nan"),
        pytest.param(lambda: quadrature(orders=(6,)),
                     ValueError, "need at least two quadrature orders", id="quadrature-orders"),
        pytest.param(lambda: separated_gaussian_setup(0.0, (20.0, 0.0, 0.0)),
                     ValueError, "width_param must be positive", id="setup-width"),
        pytest.param(lambda: separated_gaussian_setup(math.nan, (20.0, 0.0, 0.0)),
                     ValueError, "width_param must be positive", id="setup-width-nan"),
        pytest.param(lambda: CorrelationEstimate(0.5, math.nan, 10),
                     ValueError, "std_error must be nonnegative", id="estimate-std-error-nan"),
        pytest.param(lambda: decide_verdict(2.5, math.nan, 3.0),
                     ValueError, "std_error must be nonnegative", id="verdict-std-error-nan"),
        pytest.param(lambda: decide_verdict(math.nan, 0.01, 3.0),
                     ValueError, "s_value must be a number, got nan", id="verdict-s-value-nan"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, alice_angles=(0.0, 1.0)),
                     ValueError, "each wing needs exactly three setting angles", id="qkd-angles"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, seed=-1),
                     ValueError, r"seed must be an integer in \[0, 2\^64\)", id="qkd-seed"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, seed=True),
                     ValueError, r"seed must be an integer in \[0, 2\^64\)", id="qkd-seed-bool"),
        pytest.param(lambda: ChshPair(2.0, 0, 1),
                     ValueError, "setting indices must be the integers 0, 1 or 2",
                     id="chsh-pair-float-index"),
        pytest.param(lambda: ChshPair(2, True, 1),
                     ValueError, "setting indices must be the integers 0, 1 or 2",
                     id="chsh-pair-bool-index"),
        pytest.param(lambda: ChshPair(2, 0, 1.0),
                     ValueError, r"sign must be the integer \+1 or -1", id="chsh-pair-float-sign"),
        pytest.param(lambda: ChshPair(2, 0, True),
                     ValueError, r"sign must be the integer \+1 or -1", id="chsh-pair-bool-sign"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, chsh_pairs=(ChshPair(2, 0, 1),)),
                     ValueError, "chsh_pairs must be exactly four", id="qkd-pairs"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, chsh_pairs=tuple(
                         ChshPair(a, b) for a, b in ((2, 0), (2, 2), (0, 0), (0, 2)))),
                     ValueError, r"ideal singlet S = \S+ <= 2.*\(1, -1, 1, -1\) give S = 2\.82843",
                     id="qkd-signs-cannot-certify"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, alice_angles=(0.0, 0.01, 1.0),
                                       bob_angles=(0.02, 0.03, 1.0), chsh_pairs=tuple(
                         ChshPair(*p) for p in ((0, 0, 1), (0, 1, -1), (1, 0, 1), (1, 1, 1)))),
                     ValueError, r"\(1, -1, 1, 1\) give a local model S = 4 > 2.*no signs do",
                     id="qkd-rectangle-local-model-passes"),
        pytest.param(lambda: QkdConfig(channel=CHANNEL, chsh_pairs=tuple(
                         ChshPair(2, 0, s) for s in (1, -1, 1, 1))),
                     ValueError, r"\(1, -1, 1, 1\) give a local model S = 4 > 2.*no signs do",
                     id="qkd-one-cell-local-model-passes"),
        pytest.param(lambda: RoundLog(np.array([0, 80, 81], dtype=np.uint8)),
                     ValueError, "row code 81 out of range", id="round-log-code"),
        pytest.param(lambda: RoundLog(np.array([0, 80], dtype=np.int64)),
                     ValueError, "must be a 1-d uint8 array", id="round-log-dtype"),
        pytest.param(lambda: QkdConfig(channel="quantum_localized"),
                     ValueError, "unsupported channel", id="qkd-channel"),
        pytest.param(lambda: channel_config({"variant": "quantum_localized"}),
                     ConfigError, "needs either g or setup", id="channel-neither"),
        pytest.param(lambda: channel_config({"variant": "quantum_localized", "g": 0.9,
                                             "setup": SETUP_BLOCK}),
                     ConfigError, "needs either g or setup", id="channel-both"),
        pytest.param(lambda: channel_config({"variant": "quantum_localized", "g": 0.9, "t": 50.0}),
                     ConfigError, "takes t only with a setup", id="channel-g-with-t"),
        pytest.param(lambda: channel_config({"variant": "classical"}),
                     ConfigError, "unknown channel variant", id="channel-variant"),
    ],
)
def test_invalid_input_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()
