"""The enumerating oracle for tube data: the gaps of a built interval
union, counted one by one between consecutive intervals."""

from collections import Counter

from fracspec.geometry.intervals import Tube


def union_tube(union):
    """The tube data of a nonempty interval_oracle.Union, read off its intervals."""
    iv = union.intervals
    gaps = Counter(s1 - s0 - l0 for (s0, l0), (s1, _) in zip(iv, iv[1:]))
    return Tube(sum(l for _, l in iv), tuple(sorted(gaps.items())), union.denominator)
