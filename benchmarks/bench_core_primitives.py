"""Performance microbenchmarks of the hot decoder primitives.

Not a paper figure -- these track the simulator's own throughput so the
figure-level sweeps stay tractable.
"""

import numpy as np

from repro.coding import ConvolutionalCode, viterbi_decode_soft
from repro.link import build_ap_transmission, run_backscatter_session
from repro.channel import Scene
from repro.reader import BackFiReader, ls_channel_estimate, mrc_combine
from repro.tag import BackFiTag, TagConfig
from repro.utils import random_bits
from repro.wifi import WifiReceiver, WifiTransmitter, random_payload

RNG = np.random.default_rng(101)


def test_viterbi_throughput(benchmark):
    """Viterbi decode rate on a 4k-bit stream."""
    code = ConvolutionalCode("1/2")
    bits = random_bits(4000, RNG)
    llrs = 1.0 - 2.0 * code.encode_with_tail(bits).astype(np.float64)

    out = benchmark(viterbi_decode_soft, llrs)
    assert np.array_equal(out, bits)


def test_wifi_transmit(benchmark):
    """OFDM PPDU generation (1500 B @ 24 Mbps)."""
    tx = WifiTransmitter()
    psdu = random_payload(1500, RNG)
    res = benchmark(tx.transmit, psdu, 24)
    assert res.samples.size > 0


def test_wifi_receive(benchmark):
    """Full OFDM receive chain (600 B @ 24 Mbps)."""
    tx, rx = WifiTransmitter(), WifiReceiver()
    psdu = random_payload(600, RNG)
    samples = tx.transmit(psdu, 24).samples
    out = benchmark(rx.receive, samples)
    assert out.ok


def test_ls_channel_estimation(benchmark):
    """24-tap LS self-interference estimate over a 16 us silent window."""
    x = RNG.standard_normal(20000) + 1j * RNG.standard_normal(20000)
    h = RNG.standard_normal(24) * 0.01 + 0j
    y = np.convolve(x, h)[:20000]
    rows = np.arange(400, 720)
    est = benchmark(ls_channel_estimate, x, y, 24, rows)
    # Allow the default ridge's ~0.1% shrinkage.
    assert np.allclose(est, h, rtol=0.02, atol=5e-5)


def test_mrc_combining(benchmark):
    """MRC over 1000 QPSK symbols at 1 Msym/s."""
    n = 1000 * 20 + 100
    y = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    template = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    out = benchmark(mrc_combine, y, template, 40, 20, 1000,
                    guard=8, noise_floor=1.0)
    assert out.n_symbols == 1000


def test_full_session(benchmark):
    """One complete end-to-end exchange at 1 m (the experiment unit)."""
    cfg = TagConfig("qpsk", "1/2", 1e6)

    def run_once():
        rng = np.random.default_rng(5)
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        return run_backscatter_session(
            scene, BackFiTag(cfg), BackFiReader(cfg),
            wifi_payload_bytes=1500, rng=rng,
        )

    out = benchmark(run_once)
    assert out.ok


def test_ap_waveform_composition(benchmark):
    """Link-layer timeline construction (CTS + OOK + PPDU)."""
    psdu = random_payload(1500, RNG)
    tl = benchmark(build_ap_transmission, psdu, 24)
    assert tl.wifi_end > tl.wifi_start
