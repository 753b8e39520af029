"""Seeded 64-bit linear congruential generator for portable sampling.

The validate workflow draws its oracle test cases from this generator so
the cases can be reproduced bit-for-bit from the seed alone, in any
language.  The recurrence is Knuth's MMIX LCG,

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

and uniform doubles take the top 53 bits: (state' >> 11) / 2^53.
"""

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
MASK = (1 << 64) - 1


class Lcg64:
    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (MULTIPLIER * self.state + INCREMENT) & MASK
        return self.state

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * ((self.next_u64() >> 11) / float(1 << 53))

    def randint(self, lo, hi):
        """Integer in [lo, hi]: the state modulo the range.  The low b bits of
        the state repeat every 2^b draws, so over a range of 2^b values the
        results do too: ``randint(1, 2)`` alternates, and ``randint(1, 4)``
        repeats every 4th draw (the validate samplers keep this period)."""
        return lo + self.next_u64() % (hi - lo + 1)
