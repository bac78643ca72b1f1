"""The benchmark's workloads: fixed sequences of ksums CLI requests.

Each workload is a closed loop with one client: the requests are sent one
at a time, each in a fresh process, because every real CLI call pays the
cold cost and the package's unbounded caches make warm reruns meaningless.

The seed sets the request order and draws the Kloosterman parameters a and
c; the work a request does never depends on them (c is drawn from the units
other than 1 whenever q > 2, since c = 1 skips building a scaled character
table), so work counts are identical across seeds.
"""

import random

VERIFY_TIERS = ((2, 2, 5), (3, 3, 10), (6, 3, 10))
RECURSIVE = (("dc1+", 2, 7), ("dc1-", 1, 7), ("dc1-", 3, 7), ("dc2+", 2, 7),
             ("dc2-", 3, 7), ("dc1+", 2, 8))
ORACLE = ((8, 1), (7, 2), (8, 2), (5, 3))  # (r, m); not (8, 3), which runs for hours
KSUM = ((8, 1), (8, 2), (6, 3))  # (r, m)
GL_ALL = ((3, 2), (4, 2), (1, 4))  # (r, t) with every route
GL_CLOSED = ((8, 24),)  # (r, t) closed form only
GROUP_ENUM = tuple((r, 1) for r in range(1, 9)) + ((1, 2), (2, 2), (1, 3))  # (r, n)
GROUP_ELEMENTS = ((2, 2), (1, 3))  # (r, n): the largest groups, serialized
WEIGHTS_DIRECT = (("dc1-", 1, 8), ("dc1+", 2, 2), ("dc2+", 2, 2), ("dc1-", 3, 1),
                  ("dc2-", 3, 1))
# dc1- n=1 at r=8 (N=255) is left out: its DP alone outweighs every cell build
DIST_FULL = (("dc1-", 1, 7), ("dc2+", 2, 2))


class _Draw:
    def __init__(self, rng):
        self.rng = rng

    def a(self, r):
        return format(self.rng.randrange(1, 1 << r), "x")

    def c(self, r):
        return "1" if r == 1 else format(self.rng.randrange(2, 1 << r), "x")


def _verify_matrix(draw):
    """The paper's deliverable; every layer works and shares caches in one process."""
    return [["verify", "all", "--max-r", str(r), "--max-n", str(n), "--h-max", str(h)]
            for r, n, h in VERIFY_TIERS]


def _moments_recursion(draw):
    """Truncated weight distributions dominate; orthogroup and matgf do nothing."""
    return [["moments", "recursive", "--family", fam, "--n", str(n), "--r", str(r),
             "--h-max", "10"] for fam, n, r in RECURSIVE]


def _charsums_oracle(draw):
    """Only charsums, field and matgf work: the Kloosterman kernels."""
    out = [["moments", "oracle", "--r", str(r), "--m", str(m), "--h-max", "10",
            "--c", draw.c(r)] for r, m in ORACLE]
    out += [["ksum", "--r", str(r), "--a", draw.a(r), "--m", str(m), "--c", draw.c(r)]
            for r, m in KSUM]
    out += [["ksum", "gl", "--r", str(r), "--t", str(t), "--a", draw.a(r), "--c", draw.c(r),
             "--method", "all"] for r, t in GL_ALL]
    out += [["ksum", "gl", "--r", str(r), "--t", str(t), "--a", draw.a(r), "--c", draw.c(r),
             "--method", "closed_form"] for r, t in GL_CLOSED]
    return out


def _group_codes(draw):
    """Cell materialization and full-length weight distributions."""
    out = [["group", "enum", "--r", str(r), "--n", str(n)] for r, n in GROUP_ENUM]
    out += [["group", "enum", "--r", str(r), "--n", str(n), "--elements"]
            for r, n in GROUP_ELEMENTS]
    out += [["code", "weights", "--family", fam, "--n", str(n), "--r", str(r),
             "--mode", "direct"] for fam, n, r in WEIGHTS_DIRECT]
    out += [["code", "dist", "--family", fam, "--n", str(n), "--r", str(r)]
            for fam, n, r in DIST_FULL]
    return out


def _smoke(draw):
    """One quick request of every type the workloads send; seconds, for tests."""
    return [
        ["verify", "all", "--max-r", "2", "--max-n", "1", "--h-max", "3"],
        ["moments", "recursive", "--family", "dc1-", "--n", "1", "--r", "3", "--h-max", "4"],
        ["moments", "oracle", "--r", "3", "--m", "2", "--h-max", "4", "--c", draw.c(3)],
        ["ksum", "--r", "3", "--a", draw.a(3), "--m", "2", "--c", draw.c(3)],
        ["ksum", "gl", "--r", "2", "--t", "2", "--a", draw.a(2), "--c", draw.c(2),
         "--method", "all"],
        ["group", "enum", "--r", "1", "--n", "2", "--elements"],
        ["code", "weights", "--family", "dc1-", "--n", "1", "--r", "3", "--mode", "direct"],
        ["code", "dist", "--family", "dc1-", "--n", "1", "--r", "3"],
    ]


BUILDERS = {
    "verify-matrix": _verify_matrix,
    "moments-recursion": _moments_recursion,
    "charsums-oracle": _charsums_oracle,
    "group-codes": _group_codes,
    "smoke": _smoke,
}


def requests(workload: str, seed: int) -> list:
    """The workload's argv lists, parameters drawn and order shuffled by seed."""
    rng = random.Random(seed)
    out = BUILDERS[workload](_Draw(rng))
    rng.shuffle(out)
    return out
