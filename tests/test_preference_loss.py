import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import examples, write_pair_logps_jsonl

from savanna.preference_loss import (
    LossParams,
    PairLogps,
    audit_pairs,
    dpo_loss,
    irpo_loss,
    loss_gradients,
    margin,
    nll_chosen,
    read_pair_logps_jsonl,
)


def equal_ratio_pair():
    """Policy identical to reference: margin 0, chosen NLL exactly 1."""
    return PairLogps(
        policy_chosen=[-0.5, -1.5],
        policy_rejected=[-2.0],
        ref_chosen=[-0.5, -1.5],
        ref_rejected=[-2.0],
    )


logp_lists = st.lists(st.floats(min_value=-10.0, max_value=0.0), min_size=1, max_size=8)


@st.composite
def random_pair(draw):
    chosen = draw(logp_lists)
    rejected = draw(logp_lists)
    return PairLogps(
        policy_chosen=chosen,
        policy_rejected=rejected,
        ref_chosen=draw(st.lists(st.floats(min_value=-10.0, max_value=0.0),
                                 min_size=len(chosen), max_size=len(chosen))),
        ref_rejected=draw(st.lists(st.floats(min_value=-10.0, max_value=0.0),
                                   min_size=len(rejected), max_size=len(rejected))),
    )


class TestValidation:
    def test_positive_logp_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PairLogps([0.1], [-1.0], [-1.0], [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_logp_rejected(self, bad):
        with pytest.raises(ValueError, match="ref_rejected contains a non-finite"):
            PairLogps([-1.0], [-1.0], [-1.0], [-2.0, bad])

    @pytest.mark.parametrize("bad", [False, True, "a", None,
                                     pytest.param(-(10 ** 400), id="-10**400"),
                                     pytest.param([-1.0], id="list")])
    def test_entry_that_is_no_number_named(self, bad):
        with pytest.raises(ValueError, match=r"^ref_chosen contains a non-finite log-probability: "
                                             r"ref_chosen\[1\] is not a finite number$"):
            PairLogps([-1.0, -1.0], [-1.0], [-1.0, bad], [-2.0])

    def test_integer_logps_allowed(self):
        assert margin(PairLogps([-1, 0], [-2], [-1.0, -1.0], [-2.0])) == 1.0

    def test_non_finite_reported_before_positive(self):
        with pytest.raises(ValueError, match="policy_rejected contains a non-finite"):
            PairLogps([-1.0], [0.5, math.nan], [-1.0], [-2.0, -1.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            PairLogps([], [-1.0], [], [-1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            PairLogps([-1.0, -1.0], [-1.0], [-1.0], [-1.0])

    def test_zero_logp_allowed(self):
        assert margin(PairLogps([0.0], [0.0], [0.0], [0.0])) == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LossParams(beta=0.0)
        with pytest.raises(ValueError):
            LossParams(alpha_rpo=-0.1)


class TestLossValues:
    def test_zero_margin_dpo_is_ln2(self):
        assert dpo_loss(equal_ratio_pair()) == pytest.approx(math.log(2), abs=1e-15)

    def test_zero_margin_irpo_is_ln2_plus_nll(self):
        p = equal_ratio_pair()
        assert nll_chosen(p) == pytest.approx(1.0, abs=1e-15)
        assert irpo_loss(p) == pytest.approx(math.log(2) + 1.0, abs=1e-15)

    def test_alpha_zero_reduces_to_dpo(self):
        p = equal_ratio_pair()
        params = LossParams(beta=0.1, alpha_rpo=0.0)
        assert irpo_loss(p, params) == dpo_loss(p, params)

    def test_margin_sign(self):
        # policy prefers chosen more than the reference does: positive margin
        p = PairLogps([-1.0], [-3.0], [-2.0], [-2.0])
        assert margin(p) == pytest.approx(2.0)
        assert dpo_loss(p, LossParams(beta=1.0)) < math.log(2)

    def test_extreme_margin_stable(self):
        p = PairLogps([0.0], [-1e6], [-1e6], [0.0])
        params = LossParams(beta=1.0)
        assert dpo_loss(p, params) == pytest.approx(0.0, abs=1e-12)
        flipped = PairLogps([-1e6], [0.0], [0.0], [-1e6])
        loss = dpo_loss(flipped, params)
        assert math.isfinite(loss) and loss == pytest.approx(2e6, rel=1e-9)

    @settings(max_examples=examples(2))  # 200 at the default profile
    @given(random_pair())
    def test_dpo_positive_and_finite(self, p):
        loss = dpo_loss(p)
        assert math.isfinite(loss) and loss > 0

    @settings(max_examples=examples(2))  # 200 at the default profile
    @given(random_pair())
    def test_irpo_at_least_dpo(self, p):
        assert irpo_loss(p) >= dpo_loss(p)


class TestGradients:
    @staticmethod
    def numeric_gradient(p, params, kind, attr, index, step=1e-6):
        loss_fn = dpo_loss if kind == "dpo" else irpo_loss

        def shifted(delta):
            values = {name: list(getattr(p, name)) for name in
                      ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected")}
            values[attr][index] += delta
            return loss_fn(PairLogps(**values), params)

        return (shifted(step) - shifted(-step)) / (2 * step)

    @pytest.mark.parametrize("kind", ["dpo", "irpo"])
    def test_matches_finite_differences(self, kind):
        rng = random.Random(13)
        params = LossParams(beta=0.3, alpha_rpo=0.7)
        for _ in range(25):
            n_c, n_r = rng.randint(1, 5), rng.randint(1, 5)
            p = PairLogps(
                policy_chosen=[-rng.uniform(0.01, 4) for _ in range(n_c)],
                policy_rejected=[-rng.uniform(0.01, 4) for _ in range(n_r)],
                ref_chosen=[-rng.uniform(0.01, 4) for _ in range(n_c)],
                ref_rejected=[-rng.uniform(0.01, 4) for _ in range(n_r)],
            )
            grads = loss_gradients(p, params, kind)
            for attr in ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected"):
                for i, g in enumerate(getattr(grads, attr)):
                    num = self.numeric_gradient(p, params, kind, attr, i)
                    assert g == pytest.approx(num, abs=1e-6)

    def test_gradient_shapes(self):
        p = PairLogps([-1.0, -2.0, -3.0], [-1.0], [-1.0, -1.0, -1.0], [-2.0])
        grads = loss_gradients(p)
        assert len(grads.policy_chosen) == 3
        assert len(grads.policy_rejected) == 1

    def test_irpo_adds_nll_term_to_chosen_only(self):
        p = equal_ratio_pair()
        params = LossParams(beta=0.1, alpha_rpo=1.0)
        g_dpo = loss_gradients(p, params, "dpo")
        g_irpo = loss_gradients(p, params, "irpo")
        extra = params.alpha_rpo / len(p.policy_chosen)
        for a, b in zip(g_irpo.policy_chosen, g_dpo.policy_chosen):
            assert a == pytest.approx(b - extra)
        assert g_irpo.policy_rejected == g_dpo.policy_rejected
        assert g_irpo.ref_chosen == g_dpo.ref_chosen
        assert g_irpo.ref_rejected == g_dpo.ref_rejected

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loss_gradients(equal_ratio_pair(), kind="ppo")


class TestAuditAndIo:
    def test_audit_means(self):
        report = audit_pairs([equal_ratio_pair(), equal_ratio_pair()])
        assert report["mean_dpo_loss"] == pytest.approx(math.log(2))
        assert report["mean_irpo_loss"] == pytest.approx(math.log(2) + 1.0)
        assert len(report["pairs"]) == 2

    def test_audit_empty_errors(self):
        with pytest.raises(ValueError):
            audit_pairs([])

    def test_jsonl_roundtrip(self, tmp_path):
        pairs = [equal_ratio_pair(), PairLogps([-0.25], [-4.0], [-1.0], [-1.0])]
        path = tmp_path / "pairs.jsonl"
        assert write_pair_logps_jsonl(pairs, path) == 2
        assert list(read_pair_logps_jsonl(path)) == pairs
