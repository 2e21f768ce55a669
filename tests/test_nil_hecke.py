"""partial_theta from the nil-Hecke rule, checked against the polynomial route."""

import pytest

from bgg_oracle import PolynomialBGG
from qaff.bgg import FiniteSchubert, finite_schubert
from qaff.quantum import QuantumAff
from qaff.roots import build_root_system


class TestNilHeckeTheta:
    @pytest.mark.parametrize("lt", ["A2", "B2", "G2", "A3", "B3", "C3"])
    def test_matches_polynomial_route(self, lt):
        fs = FiniteSchubert(build_root_system(lt[0], int(lt[1])))
        rs = fs.rs
        oracle = PolynomialBGG(fs)
        poly = {
            w: oracle.expand_in_schubert(oracle.divided_difference(rs.theta, oracle.rep(w)))
            for w in fs.W.elements
        }
        assert fs.theta_matrix(fs.W.elements) == poly

    @pytest.mark.parametrize("lt", ["A4", "D4"])
    def test_square_zero_and_degree(self, lt):
        fs = finite_schubert(lt[0], int(lt[1]))
        FW = fs.W
        tm = fs.theta_matrix(fs.W.elements)
        assert set(tm) == set(FW.elements)
        for w in FW.elements:
            assert all(FW.length[u] == FW.length[w] - 1 for u in tm[w]), FW.format(w)
            twice = {}
            for u, c in tm[w].items():
                for v, k in tm[u].items():
                    twice[v] = twice.get(v, 0) + c * k
            assert not any(twice.values()), FW.format(w)

    def test_theta_walk_reaches_a_simple_root(self):
        for lt in ["A1", "A3", "A4", "B3", "C3", "D4", "G2", "F4"]:
            rs = build_root_system(lt[0], int(lt[1]))
            fs = FiniteSchubert(rs)
            i, walk = fs._theta_walk()
            beta = rs.simple_root(i + 1)
            for j in reversed(walk):
                beta = rs.reflect_root(rs.simple_root(j + 1), beta)
            assert beta == rs.theta, lt

    def test_rows_are_built_on_first_use(self):
        fs = FiniteSchubert(build_root_system("A", 4))
        w = fs.W.parse("s1s2s3s4")
        assert fs.pi_word((0,), {w: 1}) == {u: -k for u, k in fs.theta_matrix([w])[w].items()}
        assert list(fs._theta_rows) == [w]
        assert len(fs.theta_matrix(fs.W.elements)) == len(fs._theta_rows) == len(fs.W.elements)

    def test_warm_lambda_rows_read_the_kept_theta_rows(self, monkeypatch):
        # letter 0 builds through theta_matrix only the rows it lacks; a warm ring
        # rebuilding its lambda_bar rows reads every row from the memo
        ring = QuantumAff("B", 2)
        ring.fs = FiniteSchubert(ring.rs)
        calls = []
        build = FiniteSchubert.theta_matrix
        monkeypatch.setattr(FiniteSchubert, "theta_matrix",
                            lambda fs, support: calls.append(support) or build(fs, support))
        keys = [(i, w) for i in range(1, ring.n + 1) for w in ring.FW.elements]
        cold = [ring._lambda_basis(i, w) for i, w in keys]
        assert calls and ring.fs._theta_rows
        calls.clear()
        ring._lambda_img.clear()
        assert [ring._lambda_basis(i, w) for i, w in keys] == cold
        assert calls == []

    def test_a4_product_reads_only_some_rows(self):
        ring = QuantumAff("A", 4)
        ring.fs = FiniteSchubert(ring.rs)
        u, v = ring.FW.parse("s1s2s3s4"), ring.FW.parse("s4s3s2s1")
        got = ring.star(ring.basis(u), ring.basis(v))
        assert 0 < len(ring.fs._theta_rows) < len(ring.FW.elements)
        assert got.homogeneous_degree() == 8
