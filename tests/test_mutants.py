"""Kept mutants: the guards of the certified numerical shortcuts, each shown to matter.

Each test pins an input on which the code without one guard breaks its stated bound or
flips a decision.  It asserts that the guarded code keeps the bound or the decision, then
removes the guard with monkeypatch, the mutant, and asserts that the unguarded code does not.
"""

import numpy as np

from minterp import quadrature_rule, random_features, reference_lambda_min
from minterp.random_features import RELU_L1SPHERE, FeatureFamily, ReferenceLambda

RELU = FeatureFamily(tag=RELU_L1SPHERE)


def test_witness_rounding_keeps_the_quotient_bound_above_lambda_ref(monkeypatch):
    # v is K's own bottom eigenvector, so the quotient sits within rounding of lambda_ref,
    # and only the float32 pass's certified rounding keeps the bound above it
    X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, 7))
    rule = quadrature_rule(2, 170, 5)
    S, v = np.arange(7), np.linalg.eigh(random_features.kernel_exact(RELU, X, rule))[1][:, 0]
    lam = reference_lambda_min(X, rule)
    assert ReferenceLambda(X, rule).quotient_bound(S, v) >= lam

    real = random_features.kernel_exact
    monkeypatch.setattr(random_features, "kernel_exact",
                        lambda *args: (real(*args)[0], np.zeros((1, 1))))
    assert ReferenceLambda(X, rule).quotient_bound(S, v) < lam


def test_minorant_shift_keeps_positive_the_exact_decision(monkeypatch):
    # two equal points make K singular; value comes out at or below 0, and only the tau
    # shift stops the 4 n-draw minorant's Cholesky from calling it positive
    X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 4))
    X[:, 1] = X[:, 0]
    rule = quadrature_rule(3, 68, 2)
    assert reference_lambda_min(X, rule) <= 0
    assert not ReferenceLambda(X, rule).positive

    monkeypatch.setattr(random_features, "_U64", 0.0)  # tau = 0
    assert ReferenceLambda(X, rule).positive
