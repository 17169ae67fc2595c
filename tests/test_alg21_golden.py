"""Algorithm 2.1 block-kernel goldens: storage order, counters, RNG state.

Write-ahead-log recovery replays journaled blocks through ``offer_many``,
so a journal written by an earlier release recovers to the same state only
if the Algorithm 2.1 block kernel keeps (a) its single bulk victim draw,
(b) its per-slot last-writer rule, and (c) its first-hit append order. The
values below were recorded from the ``np.unique``-based kernel that
preceded the shared slot plan; both :class:`ExponentialReservoir` and the
array-backed :class:`ArrayExponentialShard` must still reproduce them.

The block sizes run from the fill phase (7), across the fill boundary (64)
and into the steady state (200, 200), so both branches of the slot plan —
new-slot compaction and the all-replacement shortcut — are pinned.
"""

import hashlib
import json

import pytest

from repro.core.biased import ExponentialReservoir
from repro.shard.worker import ArrayExponentialShard

BLOCKS = (7, 64, 200, 200)

#: seed -> per-block (arrival_indices, (t, offers, insertions, ejections),
#: rng-state digest) after each block of BLOCKS, at capacity 50.
GOLDEN = {
    7: [
        (
            [
                1, 2, 3, 4, 5, 6, 7
            ],
            (7, 7, 7, 0),
            "8bf7683d2887b3d0",
        ),
        (
            [
                66, 50, 48, 4, 67, 47, 17, 8, 22, 11, 12, 56, 62, 57, 36, 54,
                55, 39, 61, 37, 64, 65, 59, 60, 31, 32, 58, 42, 45, 44, 46, 51,
                69, 63, 68, 70, 71
            ],
            (71, 71, 71, 34),
            "b88cc2383308cca2",
        ),
        (
            [
                242, 198, 213, 207, 269, 257, 267, 226, 258, 254, 271, 252, 165,
                268, 159, 261, 190, 266, 256, 259, 238, 209, 191, 189, 245, 248,
                221, 188, 264, 214, 155, 244, 235, 148, 216, 181, 250, 135, 241,
                170, 228, 239, 233, 263, 240, 270, 255, 265, 222, 246
            ],
            (271, 271, 271, 221),
            "d6d486066b2143ba",
        ),
        (
            [
                419, 412, 455, 350, 463, 426, 469, 425, 470, 444, 405, 413, 385,
                449, 371, 465, 462, 471, 461, 447, 352, 435, 453, 467, 443, 298,
                400, 299, 446, 445, 450, 456, 404, 454, 459, 379, 464, 441, 440,
                451, 460, 458, 423, 466, 468, 457, 398, 381, 416, 274
            ],
            (471, 471, 471, 421),
            "c97e97fadc5f7ca8",
        ),
    ],
    2026: [
        (
            [
                1, 2, 3, 4, 5, 6, 7
            ],
            (7, 7, 7, 0),
            "e56cfef37de476e2",
        ),
        (
            [
                48, 2, 3, 4, 43, 29, 7, 52, 33, 70, 47, 66, 13, 24, 23, 53, 41,
                60, 61, 26, 68, 28, 30, 50, 71, 57, 39, 45, 40, 67, 58, 59, 51,
                54, 56, 69, 63, 64, 65
            ],
            (71, 71, 71, 32),
            "908b9ee5e5d53b46",
        ),
        (
            [
                170, 232, 165, 269, 234, 252, 228, 209, 183, 261, 270, 238, 257,
                230, 255, 250, 259, 246, 217, 141, 208, 237, 271, 267, 174, 240,
                265, 260, 225, 215, 223, 218, 242, 254, 264, 137, 201, 266, 247,
                262, 205, 196, 161, 249, 263, 121, 243, 268, 256
            ],
            (271, 271, 271, 222),
            "7f11e9a1b75d4465",
        ),
        (
            [
                462, 463, 332, 414, 431, 455, 367, 457, 440, 363, 464, 425, 329,
                434, 432, 459, 421, 400, 433, 435, 451, 450, 345, 437, 470, 471,
                453, 467, 468, 438, 297, 446, 469, 378, 429, 364, 403, 408, 412,
                439, 371, 465, 401, 466, 460, 436, 447, 348, 456, 399
            ],
            (471, 471, 471, 421),
            "945e208253d05e2c",
        ),
    ],
}


def _rng_digest(rng):
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()[:16]


@pytest.mark.parametrize("cls", [ExponentialReservoir, ArrayExponentialShard])
@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_block_kernel_matches_recorded_golden(cls, seed):
    res = cls(capacity=50, rng=seed)
    t = 0
    for b, (arrivals, counters, digest) in zip(BLOCKS, GOLDEN[seed]):
        res.offer_many(range(t, t + b))
        t += b
        assert res.arrival_indices().tolist() == arrivals
        # Integer payloads equal arrival - 1, so payload order is pinned too.
        assert res.payloads() == [a - 1 for a in arrivals]
        assert (res.t, res.offers, res.insertions, res.ejections) == counters
        assert _rng_digest(res.rng) == digest
