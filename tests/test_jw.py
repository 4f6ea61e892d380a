import pytest

from mgsim.errors import DimensionError
from mgsim.jw import C0_MODES, EXTRA_LINE, PARITY, JwFamily, c0, jw, jw_tilde2
from mgsim.pauli import PauliString, pauli_mul


def anticommutator_is_exact(ops):
    """{o_u, o_v} = 2 delta_{uv} I with exact integer phase arithmetic."""
    for u, ou in enumerate(ops):
        for v, ov in enumerate(ops):
            ab = pauli_mul(ou, ov)
            ba = pauli_mul(ov, ou)
            if u == v:
                if not (ab.x_mask == 0 and ab.z_mask == 0 and ab.scalar == 1):
                    return False
            else:
                if not (ab.x_mask == ba.x_mask and ab.z_mask == ba.z_mask
                        and ab.scalar + ba.scalar == 0):
                    return False
    return True


@pytest.mark.parametrize("mode", C0_MODES)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_c_and_d_anticommutation(n, mode):
    fam = JwFamily(n, mode)
    assert anticommutator_is_exact([fam.c(mu) for mu in range(2 * n + 1)])
    assert anticommutator_is_exact([fam.d(mu) for mu in range(2 * n + 1)])


def test_jw_labels():
    assert jw(2, 1).label() == "XI"
    assert jw(2, 2).label() == "YI"
    assert jw(2, 3).label() == "ZX"
    assert jw(2, 4).label() == "ZY"
    assert jw(3, 5).label() == "ZZX"


def test_jw_tilde_labels():
    assert [jw_tilde2(mu).label() for mu in range(1, 5)] == ["IX", "IY", "XZ", "YZ"]


def test_c0_parity_is_product_of_all_c():
    for n in (1, 2, 4):
        prod = jw(n, 1)
        for mu in range(2, 2 * n + 1):
            prod = pauli_mul(prod, jw(n, mu))
        target = c0(n, PARITY)
        assert (prod.x_mask, prod.z_mask) == (target.x_mask, target.z_mask)
        assert prod.scalar == 1j ** n  # c_1...c_2n = i^n Z...Z


def test_extra_line_mode_line_counts():
    fam = JwFamily(3, EXTRA_LINE)
    assert fam.lines == 4
    assert fam.c(0).label() == "ZZZX"
    assert fam.c(1).label() == "XIII"


def test_d_operators_are_hermitian_units():
    for mode in C0_MODES:
        fam = JwFamily(3, mode)
        for mu in range(7):
            assert fam.d(mu).scalar in (1, -1)


def test_z_string_is_minus_i_cc():
    fam = JwFamily(3, PARITY)
    for k in (1, 2, 3):
        prod = pauli_mul(fam.c(2 * k - 1), fam.c(2 * k))
        z = PauliString(fam.lines, 0, 1 << (k - 1))
        assert (prod.x_mask, prod.z_mask) == (z.x_mask, z.z_mask)
        assert -1j * prod.scalar == z.scalar


def test_index_bounds():
    with pytest.raises(DimensionError):
        jw(2, 5)
    with pytest.raises(DimensionError):
        JwFamily(2).c(5)
    with pytest.raises(ValueError):
        c0(2, "bogus")


def test_d_matches_definition():
    fam = JwFamily(2, PARITY)
    for mu in range(1, 5):
        direct = pauli_mul(fam.c(mu), fam.c(0))
        expect = PauliString(fam.lines, direct.x_mask, direct.z_mask, direct.phase_pow + 1)
        assert fam.d(mu) == expect
    assert fam.d(0) == fam.c(0)
