"""Output checks. Each one tests a property that follows from the method, or
compares against a path computed independently of the timed call; none
compares with a stored copy of earlier output.

Every check returns None when the output passes and a one-line reason when
it does not.
"""

from __future__ import annotations

import math

import numpy as np

from saasr.speaker import SpeakerInventory
from saasr.tensor import no_grad


def hypothesis_length(hyp, length: int):
    """A rigged constant weight of (L + 0.5) / T fires exactly L times, and
    greedy decoding with end-of-sequence forbidden emits exactly L tokens."""
    if len(hyp.tokens) != length or len(hyp.speaker_ids) != length:
        return (f"hypothesis has {len(hyp.tokens)} tokens and "
                f"{len(hyp.speaker_ids)} speaker ids, expected {length}")
    return None


def speakers_in_inventory(hyp, inv: SpeakerInventory):
    genuine = {p.id for p in inv.profiles[:inv.true_count]}
    stray = sorted(set(hyp.speaker_ids) - genuine)
    if stray:
        return f"speaker ids {stray} are not in the genuine inventory"
    return None


def decoder_calls_rise(before: int, after: int, expected: int):
    if after - before != expected:
        return (f"decoder_calls rose by {after - before} in one decode, "
                f"expected {expected}")
    return None


def inventory_order_invariant(model, x, inv: SpeakerInventory, hyp):
    """Attention over profiles is permutation-equivariant, so decoding with
    the inventory reversed must give the same tokens and speaker ids."""
    reversed_inv = SpeakerInventory(list(reversed(inv.profiles)),
                                    inv.true_count)
    other = model.nar_infer(x, reversed_inv)
    if other.tokens != hyp.tokens or other.speaker_ids != hyp.speaker_ids:
        return "reversing the inventory order changed the hypothesis"
    return None


def greedy_matches_teacher_forced(model, x, hyp):
    """One causally masked pass over the emitted prefix: row i sees exactly
    the prefix greedy step i saw, so its argmax over the non-EOS columns is
    the greedy token."""
    with no_grad():
        logits = model.teacher_forced_logits(x, hyp.tokens).data
    expected = np.argmax(logits[:len(hyp.tokens), :model.eos_id], axis=1)
    wrong = [i for i, (a, b) in enumerate(zip(hyp.tokens, expected)) if a != b]
    if wrong:
        return (f"greedy tokens differ from the teacher-forced argmax at "
                f"positions {wrong[:5]}")
    return None


def losses_finite(losses):
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        return f"non-finite loss at steps {bad[:5]}"
    return None


def loss_decreases(losses):
    tenth = max(1, len(losses) // 10)
    first = float(np.mean(losses[:tenth]))
    last = float(np.mean(losses[-tenth:]))
    if not last < first:
        return (f"mean loss of the last {tenth} steps {last:.4f} is not below "
                f"that of the first {tenth} steps {first:.4f}")
    return None


def directional_derivative(loss_fn, tensors, grads, seed: int,
                           step: float = 1e-5, tolerance: float = 1e-6):
    """Compare the gradient's derivative along a seeded random unit
    direction over all ``tensors`` with a central difference of
    ``loss_fn``. Parameter values are restored bit for bit."""
    rng = np.random.default_rng(seed)
    dirs = [rng.normal(size=t.data.shape) for t in tensors]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    analytic = sum(float((g * d).sum())
                   for g, d in zip(grads, dirs) if g is not None)
    saved = [t.data for t in tensors]

    def loss_at(sign):
        for t, s, d in zip(tensors, saved, dirs):
            t.data = s + sign * step * d
        with no_grad():
            return loss_fn().item()

    try:
        numeric = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * step)
    finally:
        for t, s in zip(tensors, saved):
            t.data = s
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)
    if not rel <= tolerance:
        return (f"directional derivative {analytic:.10g} differs from the "
                f"central difference {numeric:.10g} by {rel:.2e} relative "
                f"(tolerance {tolerance:g})")
    return None


def bit_identical(params_a, params_b):
    diff = [a.name for a, b in zip(params_a, params_b)
            if a.tensor.data.tobytes() != b.tensor.data.tobytes()]
    if len(params_a) != len(params_b) or diff:
        return f"two runs from one seed differ in parameters {diff[:5]}"
    return None


def tokens_fired(fired: int, expected: int):
    if fired != expected:
        return f"integrate-and-fire emitted {fired} tokens, expected {expected}"
    return None
