"""Global-state randomness: every call here breaks reproducibility."""

import random

import numpy as np
from numpy.random import default_rng


def scramble(items):
    random.shuffle(items)  # line 10: unseeded-random
    noise = np.random.rand(4)  # line 11: unseeded-random
    rng = default_rng()  # line 12: unseeded-random
    anon = random.Random()  # line 13: unseeded-random
    bits = np.random.MT19937()  # line 14: unseeded-random
    entropy = np.random.SeedSequence()  # line 15: unseeded-random
    return items, noise, rng, anon, bits, entropy


def fine(seed):
    rng = random.Random(seed)
    gen = default_rng(seed)
    bits = np.random.PCG64(seed)
    return rng.random(), gen.random(), bits.random_raw()
