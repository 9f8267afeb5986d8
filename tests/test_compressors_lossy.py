"""Unit tests for the lossy compressors: Solutions A-D, ZFP-like, FPZIP-like.

Each compressor must honour its declared error bound on a battery of data
shapes (random, spiky, sparse, constant, real quantum state snapshots) — the
property the whole simulation-fidelity argument of the paper rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    CompressorError,
    ErrorBoundMode,
    FPZIPLikeCompressor,
    ReshuffleCompressor,
    SZComplexCompressor,
    SZCompressor,
    XorBitplaneCompressor,
    ZFPLikeCompressor,
    get_compressor,
    roundtrip,
)
from repro.compression.fpzip_like import PAPER_PRECISION_MAP

RELATIVE_COMPRESSORS = {
    "sz": lambda bound: SZCompressor(bound=bound),
    "sz-complex": lambda bound: SZComplexCompressor(bound=bound),
    "xor-bitplane": lambda bound: XorBitplaneCompressor(bound=bound),
    "reshuffle": lambda bound: ReshuffleCompressor(bound=bound),
    "zfp": lambda bound: ZFPLikeCompressor(bound=bound, mode=ErrorBoundMode.RELATIVE),
    "fpzip": lambda bound: FPZIPLikeCompressor.from_relative_bound(bound),
}


def _relative_errors(original: np.ndarray, recovered: np.ndarray) -> np.ndarray:
    nonzero = original != 0
    return np.abs(recovered[nonzero] - original[nonzero]) / np.abs(original[nonzero])


class TestRelativeBoundIsHonoured:
    @pytest.mark.parametrize("name", sorted(RELATIVE_COMPRESSORS))
    @pytest.mark.parametrize("bound", [1e-1, 1e-3])
    def test_on_spiky_data(self, name, bound, spiky_data):
        compressor = RELATIVE_COMPRESSORS[name](bound)
        recovered, _ = roundtrip(compressor, spiky_data)
        assert _relative_errors(spiky_data, recovered).max() <= compressor.bound * (1 + 1e-9)

    @pytest.mark.parametrize("name", sorted(RELATIVE_COMPRESSORS))
    def test_on_qaoa_snapshot(self, name, qaoa_snapshot):
        compressor = RELATIVE_COMPRESSORS[name](1e-3)
        recovered, _ = roundtrip(compressor, qaoa_snapshot)
        assert _relative_errors(qaoa_snapshot, recovered).max() <= compressor.bound * (1 + 1e-9)

    @pytest.mark.parametrize("name", sorted(RELATIVE_COMPRESSORS))
    def test_on_sup_snapshot(self, name, sup_snapshot):
        compressor = RELATIVE_COMPRESSORS[name](1e-2)
        recovered, _ = roundtrip(compressor, sup_snapshot)
        assert _relative_errors(sup_snapshot, recovered).max() <= compressor.bound * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["sz", "xor-bitplane", "reshuffle", "sz-complex"])
    def test_zeros_recovered_exactly(self, name, rng):
        data = rng.normal(size=1024)
        data[::3] = 0.0
        compressor = RELATIVE_COMPRESSORS[name](1e-3)
        recovered, _ = roundtrip(compressor, data)
        assert np.all(recovered[data == 0.0] == 0.0)

    @pytest.mark.parametrize("name", sorted(RELATIVE_COMPRESSORS))
    def test_constant_data(self, name):
        data = np.full(512, 0.125)
        compressor = RELATIVE_COMPRESSORS[name](1e-2)
        recovered, record = roundtrip(compressor, data)
        assert _relative_errors(data, recovered).max() <= compressor.bound
        assert record.ratio > 4


class TestAbsoluteBound:
    @pytest.mark.parametrize("bound", [1e-2, 1e-4])
    def test_sz_absolute(self, bound, rng):
        data = rng.normal(size=4096)
        compressor = SZCompressor(bound=bound, mode=ErrorBoundMode.ABSOLUTE)
        recovered, _ = roundtrip(compressor, data)
        assert np.abs(recovered - data).max() <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("bound", [1e-2, 1e-4])
    def test_zfp_absolute(self, bound, rng):
        data = rng.normal(size=4096)
        compressor = ZFPLikeCompressor(bound=bound, mode=ErrorBoundMode.ABSOLUTE)
        recovered, _ = roundtrip(compressor, data)
        assert np.abs(recovered - data).max() <= bound * (1 + 1e-12)

    def test_zfp_refuses_what_it_cannot_bound(self):
        # Until 1.9.0 the coefficient quantizer cast rint(c / step) to int64
        # unchecked: |x| / bound past 2^63 wrapped and decoded to garbage
        # (absolute error 1e16 at bound 1e-3), nan/inf encoded silently.
        compressor = get_compressor("zfp", bound=1e-3)
        largest_exact = np.full(64, 1e15)
        recovered = compressor.decompress(compressor.compress(largest_exact))
        assert np.array_equal(recovered, largest_exact)
        for value in (1e16, np.nan, np.inf):
            with pytest.raises(CompressorError):
                compressor.compress(np.full(64, value))

    def test_sz_absolute_on_smooth_data_compresses_well(self):
        x = np.linspace(0, 10, 1 << 14)
        data = np.sin(x)
        compressor = SZCompressor(bound=1e-4, mode=ErrorBoundMode.ABSOLUTE)
        _, record = roundtrip(compressor, data)
        assert record.ratio > 10


def _adversarial_blocks() -> dict[str, np.ndarray]:
    """4096-value blocks at the edges of float64 and of each codec's design."""

    size = 4096
    rng = np.random.default_rng(20190817)
    signs = rng.choice([-1.0, 1.0], size)
    spike = np.zeros(size)
    spike[size // 3] = 0.7
    return {
        "plus_zero": np.zeros(size),
        "minus_zero": -np.zeros(size),
        "mixed_zeros": np.where(rng.random(size) < 0.5, 0.0, -0.0),
        "denormals": np.arange(1, size + 1) * 5e-324,
        "tiny_normal": rng.normal(0.0, 1e-300, size),
        "dynamic_range": signs * 10.0 ** rng.uniform(-300, 300, size),
        "amplitudes": signs * 10.0 ** rng.uniform(-30, 0, size),
        "all_escape": rng.normal(0.0, 1e8, size),  # every SZ delta escapes
        "constant": np.full(size, 0.25),
        "alternating": np.where(np.arange(size) % 2 == 0, 1.0, -1.0),
        "one_spike": spike,
        "near_max": np.full(size, 1.7e308),
    }


class TestPointwiseBoundOnAdversarialBlocks:
    """The paper's guarantee (Section 2.3) as a property: a round trip honours
    the codec's declared pointwise bound or raises — never a silent violation."""

    @pytest.mark.parametrize("block", sorted(_adversarial_blocks()))
    @pytest.mark.parametrize("bound", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize(
        "name", ["xor-bitplane", "sz", "sz-complex", "reshuffle", "zfp"]
    )
    def test_round_trip_honours_the_bound_or_raises(self, name, bound, block):
        data = _adversarial_blocks()[block]
        compressor = get_compressor(name, bound=bound)
        try:
            recovered = compressor.decompress(compressor.compress(data))
        except CompressorError:
            return
        allowed = (
            bound * np.abs(data)
            if compressor.mode is ErrorBoundMode.RELATIVE
            else np.full(data.size, bound)
        )
        assert np.isfinite(recovered).all()
        assert np.all(np.abs(recovered - data) <= allowed * (1 + 1e-9))


class TestSolutionCBehaviour:
    """Properties the paper claims specifically for Solution C."""

    def test_magnitude_never_increases(self, qaoa_snapshot):
        compressor = XorBitplaneCompressor(bound=1e-3)
        recovered, _ = roundtrip(compressor, qaoa_snapshot)
        assert np.all(np.abs(recovered) <= np.abs(qaoa_snapshot) + 1e-300)

    def test_over_preservation(self, sup_snapshot):
        # Section 4.2: truncation errors are "generally somewhat lower than
        # the desired error bound" — check the mean error is well below it.
        bound = 1e-2
        compressor = XorBitplaneCompressor(bound=bound)
        recovered, _ = roundtrip(compressor, sup_snapshot)
        rel = _relative_errors(sup_snapshot, recovered)
        assert rel.mean() < bound / 2

    def test_errors_uncorrelated(self, sup_snapshot):
        from repro.compression.metrics import lag1_autocorrelation

        compressor = XorBitplaneCompressor(bound=1e-3)
        recovered, _ = roundtrip(compressor, sup_snapshot)
        errors = recovered - sup_snapshot
        # The paper reports |autocorrelation| in [1e-4] territory on 1M-point
        # blocks of dense data; on this small snapshot (many exact zeros) a
        # looser threshold still distinguishes "uncorrelated" from the ~0.5+
        # autocorrelation a smoothing/prediction-based scheme would show.
        assert abs(lag1_autocorrelation(errors)) < 0.1

    def test_keep_bytes_property(self):
        assert XorBitplaneCompressor(bound=1e-1).keep_bytes == 2
        assert XorBitplaneCompressor(bound=1e-5).keep_bytes == 4

    def test_tighter_bound_means_lower_ratio(self, sup_snapshot):
        loose = roundtrip(XorBitplaneCompressor(bound=1e-1), sup_snapshot)[1].ratio
        tight = roundtrip(XorBitplaneCompressor(bound=1e-5), sup_snapshot)[1].ratio
        assert loose > tight

    def test_solution_c_and_d_have_identical_errors(self, qaoa_snapshot):
        # Figure 12: "the error distribution curves of Solutions C and D
        # overlap ... they have exactly the same compression errors".
        c_recovered, _ = roundtrip(XorBitplaneCompressor(bound=1e-3), qaoa_snapshot)
        d_recovered, _ = roundtrip(ReshuffleCompressor(bound=1e-3), qaoa_snapshot)
        assert np.array_equal(c_recovered, d_recovered)


class TestSolutionBAndD:
    def test_solution_b_uses_reduced_bins(self):
        assert SZComplexCompressor(bound=1e-3).max_bins == 16384
        assert SZCompressor(bound=1e-3).max_bins == 65536

    def test_reshuffle_handles_odd_length(self, rng):
        data = rng.normal(size=333)
        recovered, _ = roundtrip(ReshuffleCompressor(bound=1e-3), data)
        assert _relative_errors(data, recovered).max() <= 1e-3

    def test_sz_complex_handles_odd_length(self, rng):
        data = rng.normal(size=101)
        recovered, _ = roundtrip(SZComplexCompressor(bound=1e-2), data)
        assert _relative_errors(data, recovered).max() <= 1e-2

    def test_complex_input(self, rng):
        state = rng.normal(size=256) + 1j * rng.normal(size=256)
        state /= np.linalg.norm(state)
        compressor = SZComplexCompressor(bound=1e-3)
        recovered, _ = roundtrip(compressor, state)
        original = state.view(np.float64)
        assert _relative_errors(original, recovered).max() <= 1e-3


class TestFPZIPPrecisionMapping:
    @pytest.mark.parametrize("bound,precision", sorted(PAPER_PRECISION_MAP.items()))
    def test_paper_precisions(self, bound, precision):
        compressor = FPZIPLikeCompressor.from_relative_bound(bound)
        assert compressor.precision == precision

    def test_true_bound_formula(self):
        assert FPZIPLikeCompressor(precision=22).bound == pytest.approx(2.0**-10)

    def test_bound_honoured_at_own_declared_bound(self, spiky_data):
        compressor = FPZIPLikeCompressor(precision=24)
        recovered, _ = roundtrip(compressor, spiky_data)
        assert _relative_errors(spiky_data, recovered).max() <= compressor.bound

    def test_precision_out_of_range(self):
        with pytest.raises(CompressorError):
            FPZIPLikeCompressor(precision=2)

    def test_higher_precision_higher_accuracy_lower_ratio(self, sup_snapshot):
        low = roundtrip(FPZIPLikeCompressor(precision=16), sup_snapshot)
        high = roundtrip(FPZIPLikeCompressor(precision=28), sup_snapshot)
        assert low[1].ratio > high[1].ratio
        assert low[1].max_rel_error > high[1].max_rel_error


class TestMisconfiguration:
    def test_sz_rejects_lossless_mode(self):
        with pytest.raises(CompressorError):
            SZCompressor(mode=ErrorBoundMode.LOSSLESS)

    def test_negative_bound_rejected(self):
        with pytest.raises(CompressorError):
            XorBitplaneCompressor(bound=-1.0)

    # (cross-codec blob rejection is covered for every family pair by
    # test_codecs_common.py::test_foreign_blob_rejected)

    def test_registry_solution_aliases(self):
        assert isinstance(get_compressor("A", bound=1e-3), SZCompressor)
        assert isinstance(get_compressor("B", bound=1e-3), SZComplexCompressor)
        assert isinstance(get_compressor("C", bound=1e-3), XorBitplaneCompressor)
        assert isinstance(get_compressor("D", bound=1e-3), ReshuffleCompressor)

    def test_registry_unknown_name(self):
        with pytest.raises(CompressorError):
            get_compressor("lz4-turbo")


class TestPaperComparisons:
    """Qualitative orderings the paper's evaluation reports."""

    def test_solution_c_faster_than_sz(self, sup_snapshot):
        _, sz_record = roundtrip(SZCompressor(bound=1e-3), sup_snapshot)
        _, c_record = roundtrip(XorBitplaneCompressor(bound=1e-3), sup_snapshot)
        assert c_record.compress_mb_per_s > sz_record.compress_mb_per_s
        assert c_record.decompress_mb_per_s > sz_record.decompress_mb_per_s

    def test_sz_beats_zfp_ratio_on_relative_bounds(self, qaoa_snapshot):
        # Figure 8: SZ achieves higher ratios than ZFP at the same pointwise
        # relative error bound on quantum state data.
        _, sz_record = roundtrip(SZCompressor(bound=1e-2), qaoa_snapshot)
        _, zfp_record = roundtrip(
            ZFPLikeCompressor(bound=1e-2, mode=ErrorBoundMode.RELATIVE), qaoa_snapshot
        )
        assert sz_record.ratio > zfp_record.ratio
