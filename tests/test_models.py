"""Model construction: Hamiltonian matrices, dispersion, disorder draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavidyn.models import (
    HTCModel,
    SystemBathHamiltonian,
    TCModel,
    disorder_qubit_freqs,
    disordered_tc,
    htc_system_bath,
    phonon_dispersion,
    phonon_wavenumbers,
    tc_system_bath,
)


@given(
    n=st.integers(min_value=1, max_value=40),
    wc=st.floats(0.1, 5.0),
    w0=st.floats(0.1, 5.0),
    wr=st.floats(0.0, 1.0),
)
def test_tc_matrix_exactly_hermitian(n, wc, w0, wr):
    h = TCModel(n, wc, w0, wr).matrix()
    # bit-for-bit equality, not a tolerance check
    assert np.array_equal(h, h.conj().T)


def test_tc_matrix_values():
    m = TCModel(n_qubits=4, omega_c=2.0, omega_qubit=1.9, omega_r=0.3)
    h = m.matrix()
    assert h.shape == (5, 5)
    assert h[0, 0] == 2.0
    assert np.allclose(np.diag(h)[1:], 1.9)
    assert np.allclose(h[0, 1:], 0.3 / 2.0)  # 0.3/sqrt(4)
    assert np.count_nonzero(h[1:, 1:] - np.diag(np.diag(h)[1:])) == 0


def test_tc_per_qubit_freqs():
    freqs = [1.0, 1.1, 0.9]
    h = TCModel(3, 1.0, freqs, 0.1).matrix()
    assert np.allclose(np.diag(h)[1:], freqs)
    with pytest.raises(ValueError):
        TCModel(4, 1.0, freqs, 0.1).matrix()


def test_loss_enters_as_negative_imaginary_diagonal():
    m = TCModel(2, 1.0, 1.0, 0.1, kappa=0.006, gamma=0.002)
    h = m.matrix()
    assert h[0, 0] == 1.0 - 0.006j
    assert h[1, 1] == 1.0 - 0.002j
    assert m.lossy
    base = TCModel(2, 1.0, 1.0, 0.1)
    assert not base.lossy
    assert base.with_loss(0.006, 0.002).matrix()[0, 0] == 1.0 - 0.006j


def test_single_emitter_matrix():
    h = TCModel(1, 1.0, 1.0, 0.1).matrix()
    assert np.array_equal(h, np.array([[1.0, 0.1], [0.1, 1.0]], dtype=complex))


def test_spectrum_invariant_under_site_permutation():
    rng = np.random.default_rng(0)
    freqs = 1.0 + 0.2 * (rng.random(9) - 0.5)
    a = TCModel(9, 1.0, freqs, 0.1).matrix()
    b = TCModel(9, 1.0, rng.permutation(freqs), 0.1).matrix()
    ea = np.sort(np.linalg.eigvalsh(a.real))
    eb = np.sort(np.linalg.eigvalsh(b.real))
    assert np.abs(ea - eb).max() < 1e-12


def test_mode_frequency_for_index_range():
    from cavidyn.models import mode_frequency_for_index

    assert np.isclose(mode_frequency_for_index(20, 0.124, 0.5, 10), 0.186)
    assert np.isclose(mode_frequency_for_index(20, 0.124, 0.0, 3), 0.124)
    with pytest.raises(ValueError):
        mode_frequency_for_index(20, 0.124, 0.5, 11)
    with pytest.raises(ValueError):
        mode_frequency_for_index(20, 0.124, 0.5, -10)


def test_wavenumber_grid():
    k = phonon_wavenumbers(20)
    assert len(k) == 20
    # l runs -9..10 for N=20: includes k=0 and k=pi, excludes k=-pi
    assert np.isclose(k.max(), np.pi)
    assert np.isclose(k.min(), -9 * 2 * np.pi / 20)
    assert 0.0 in k


def test_dispersion_band_edges():
    k = phonon_wavenumbers(20)
    w = phonon_dispersion(k, 0.124, 0.5)
    assert np.isclose(w.max(), 0.186)
    assert np.isclose(w.min(), 0.062)
    flat = phonon_dispersion(k, 0.124, 0.0)
    assert np.allclose(flat, 0.124)


def test_site_coupling_magnitude():
    htc = HTCModel(tc=TCModel(20, 1.0, 1.0, 0.1), lam=0.5, phonon_base=0.124)
    c = htc.site_coupling()
    assert c.shape == (20, 20)
    # flat band: |c| = lam/sqrt(N) * omega = 0.5/sqrt(20)*0.124
    assert np.allclose(np.abs(c), 0.0138636214604987, atol=1e-12)


def test_site_coupling_phases():
    htc = HTCModel(tc=TCModel(8, 1.0, 1.0, 0.1), lam=0.3, phonon_base=0.1)
    c = htc.site_coupling()
    k = htc.wavenumbers
    w = htc.mode_freqs
    # site n (1-based) and mode q: -(lam/sqrt N) w_q exp(-i k_q n)
    n, q = 3, 5
    expect = -(0.3 / np.sqrt(8)) * w[q] * np.exp(-1j * k[q] * (n + 1))
    assert np.isclose(c[n, q], expect)


def test_system_bath_shapes_and_hermiticity():
    htc = HTCModel(tc=TCModel(6, 1.0, 1.0, 0.1), lam=0.4, phonon_base=0.124,
                   phonon_bandwidth=0.5)
    sb = htc_system_bath(htc)
    assert sb.n_sys == 7 and sb.n_modes == 6
    assert sb.hermitian and sb.check_hermitian()
    # coupling only on emitter diagonals, never on the photon label
    assert np.count_nonzero(sb.coup_create[0, :, :]) == 0
    assert np.count_nonzero(sb.coup_create[:, 0, :]) == 0
    lossy = htc_system_bath(
        HTCModel(tc=TCModel(6, 1.0, 1.0, 0.1, kappa=0.01), lam=0.4, phonon_base=0.124)
    )
    assert not lossy.hermitian
    assert not lossy.check_hermitian()


def test_tc_system_bath_is_bathless():
    sb = tc_system_bath(TCModel(3, 1.0, 1.0, 0.1))
    assert sb.n_modes == 0
    assert np.array_equal(sb.e_sys, TCModel(3, 1.0, 1.0, 0.1).matrix())


def test_system_bath_shape_validation():
    with pytest.raises(ValueError):
        SystemBathHamiltonian(
            e_sys=np.zeros((2, 2)),
            mode_freqs=np.zeros(3),
            coup_create=np.zeros((2, 2, 2)),
            coup_annihilate=np.zeros((2, 2, 3)),
        )


@given(
    seed=st.integers(0, 2**32 - 1),
    realization=st.integers(0, 10_000),
    width=st.floats(0.01, 1.0),
)
@settings(max_examples=50)
def test_disorder_draws_bounded_and_reproducible(seed, realization, width):
    a = disorder_qubit_freqs(1.0, width, 16, seed, realization)
    b = disorder_qubit_freqs(1.0, width, 16, seed, realization)
    assert np.array_equal(a, b)
    assert np.all(a >= 1.0 - width / 2) and np.all(a <= 1.0 + width / 2)


def test_disorder_is_order_independent():
    # drawing realization 5 directly equals drawing it after 0..4
    direct = disorder_qubit_freqs(2.0, 0.3, 8, seed=11, realization=5)
    for r in range(5):
        disorder_qubit_freqs(2.0, 0.3, 8, seed=11, realization=r)
    again = disorder_qubit_freqs(2.0, 0.3, 8, seed=11, realization=5)
    assert np.array_equal(direct, again)


def test_disorder_zero_width_is_exact():
    a = disorder_qubit_freqs(1.3, 0.0, 4, seed=0, realization=0)
    assert np.array_equal(a, np.full(4, 1.3))


def test_disordered_tc_keeps_mean_frequency_center():
    m = TCModel(50, 1.0, 1.0, 0.1)
    d = disordered_tc(m, width=0.2, seed=3, realization=0)
    assert d.qubit_freqs.shape == (50,)
    assert abs(d.qubit_freqs.mean() - 1.0) < 0.05
    assert np.all(np.abs(d.qubit_freqs - 1.0) <= 0.1)
