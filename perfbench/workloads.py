"""The three benchmark workloads: inputs, one operation, and its output check.

Every workload builds a pool of inputs in a few set-up rounds, then runs one
operation at a time in a closed loop with a single client, in passes over
the pool.  An entry's operation does the same work in every pass: its
randomness comes from the workload seed and the entry, so a repeat must
return the first result exactly.  Outputs are checked in full the first time
an entry runs; later passes must reproduce them.

The package is only called through stable public entry points (``keygen``,
``sign``, ``verify``/``verify_poly`` with keyword ``rng=``, the text
functions and ``exact_value_counts``), looked up on their modules at call
time so that the tracer's wrappers see every call.

The signer population is fixed: keypair ``k`` comes from seed ``k`` and signs
message ``k``; the pools' honest signatures and wrong-key forgeries come from
seeds derived from ``k``.  Signature sizes span two orders of magnitude from
one keypair or message to the next, so a seeded population would change the
cost of a run by more than the regressions the benchmark must catch.  The
workload seed drives the rest: the randomness of every verification and of
every signing in ``keygen_sign``.
"""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cubesign import automorphisms, counting, scheme, sizes
from cubesign.params import SchemeParams
from cubesign.poly import Poly, indices_of, mask_of

SETUP_ROUNDS = 3  # set-up rounds that build the pool
SETUP_REPEATS = 6  # timing-only set-up rounds spread through the run
WARMUP_SIGNERS = 4  # fixed keygen+sign operations in each keygen_sign set-up round


def derive(*parts) -> int:
    """Stable 64-bit seed from the given parts (str hashing is randomized)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Profile:
    params: SchemeParams
    keys_per_round: int = 1  # keypairs (signers for keygen_sign) added per set-up round
    cli_runs: int = 0  # CLI verifications checked against the library


PRODUCTION = {
    "verify": Profile(SchemeParams(), keys_per_round=10, cli_runs=4),
    "keygen_sign": Profile(SchemeParams(), keys_per_round=40),
    "exhaustive": Profile(SchemeParams(n=14), keys_per_round=8),
}

# Small enough for the smoke test; verify and keygen_sign keep n=31 because
# message hashing is fixed at 32 variables.
TINY = {
    "verify": Profile(SchemeParams(trials=200), cli_runs=1),
    "keygen_sign": Profile(SchemeParams()),
    "exhaustive": Profile(SchemeParams(n=6)),
}


def signer_message(k: int) -> bytes:
    return f"cubesign benchmark message {k}".encode()


def synth_message_poly(nvars: int, rng: random.Random, nterms: int = 20) -> Poly:
    """Stand-in for the hashed message at reduced variable counts."""
    terms: dict[int, int] = {}
    while len(terms) < nterms:
        mask = mask_of(rng.sample(range(1, nvars + 1), rng.randint(1, 3)))
        if mask not in terms:
            terms[mask] = rng.choice((1, -1))
    return Poly(nvars, terms)


def balanced(entries: list, cost) -> list:
    """Entries ordered so that every prefix spans the cost range evenly.

    A time-bounded run stops part-way through a pass over the pool; ranking
    by cost and taking ranks in bit-reversed order keeps the ops of that
    partial pass as heavy as the pool on average.
    """
    ranked = sorted(entries, key=cost)
    bits = max(1, (len(ranked) - 1).bit_length())
    order = sorted(range(len(ranked)), key=lambda r: int(f"{r:0{bits}b}"[::-1], 2))
    return [ranked[r] for r in order]


def cube_positive_count(challenge: Poly, components: list[Poly], nvars: int) -> int:
    """Cube points where the challenge of the component values is positive.

    Plain numpy over the whole cube, sharing no code with ``cubesign.counting``,
    so a counting kernel that returns wrong values cannot agree with it.
    """
    cube = np.arange(1 << nvars, dtype=np.int64)
    values = []
    for p in components:
        v = np.zeros(len(cube), dtype=np.int64)
        for mask, c in p.terms.items():
            v += c * ((cube & mask) == mask)
        values.append(v)
    acc = np.zeros(len(cube), dtype=np.int64)
    for mask, c in challenge.terms.items():
        term = np.full(len(cube), c, dtype=np.int64)
        for i in indices_of(mask):
            term *= values[i - 1]
        acc += term
    return int((acc > 0).sum())


def report_problem(report, trials: int, threshold: float) -> str | None:
    """Why a VerifyReport is inconsistent with the decision rule, or None."""
    if report.trials != trials:
        return f"trials {report.trials} != {trials}"
    for count in (report.reference_positive, report.signed_positive):
        if not 0 <= count <= trials:
            return f"count {count} outside 0..{trials}"
    if report.allowed_gap != math.floor(threshold * trials):
        return f"allowed_gap {report.allowed_gap} != floor({threshold} * {trials})"
    if report.accepted != (report.count_gap <= report.allowed_gap):
        return f"accepted={report.accepted} but gap {report.count_gap} vs {report.allowed_gap}"
    return None


class Workload:
    """Shared bookkeeping: first outputs, decision tallies and the signatures handled."""

    def __init__(self, profile: Profile, seed: int) -> None:
        self.profile = profile
        self.params = profile.params
        self.seed = seed
        self.pool: list = []
        self.first: dict[int, object] = {}  # entry -> what its first run returned
        self.sig_terms: list[int] = []
        self.sig_kb: list[float] = []
        self.honest = self.honest_rejected = self.forged = self.forged_accepted = 0

    def op_seed(self, j: int) -> int:
        return derive(self.seed, self.name, j)

    def rng(self, j: int) -> random.Random:
        return random.Random(self.op_seed(j))

    def check(self, j: int, out) -> str | None:
        """Check entry j's output in full on its first run, else against the first."""
        key = self.result_key(out)
        if j in self.first:
            return None if key == self.first[j] else f"repeat of entry {j} returned another result"
        problem = self.check_first(j, out)
        if problem is None:
            self.first[j] = key
        return problem

    def note_signature(self, sig) -> None:
        size = sizes.measure([sig.poly])
        self.sig_terms.append(size.monomial_count)
        self.sig_kb.append(size.kilobytes)

    def note_decision(self, honest: bool, accepted: bool) -> None:
        if honest:
            self.honest += 1
            self.honest_rejected += not accepted
        else:
            self.forged += 1
            self.forged_accepted += accepted

    def key_seeds(self, k: int) -> range:
        n = self.profile.keys_per_round
        return range(k * n, (k + 1) * n)

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        if self.sig_kb:
            out["sig_kb_mean"] = (sum(self.sig_kb) / len(self.sig_kb), "KB")
        if self.honest:
            out["honest_reject_frac"] = (self.honest_rejected / self.honest, "fraction")
        if self.forged:
            out["forged_accept_frac"] = (self.forged_accepted / self.forged, "fraction")
        return out


def _report_key(report) -> tuple:
    return report.accepted, report.reference_positive, report.signed_positive, report.challenge


class Verify(Workload):
    """Parse a public key and signature from text, then verify (n=31)."""

    name = "verify"

    def build(self, k: int) -> list:
        params, entries = self.params, []
        for key_seed in self.key_seeds(k):
            priv, pub = scheme.keygen(params, random.Random(key_seed))
            message = signer_message(key_seed)
            honest = scheme.sign(priv, params, message, random.Random(derive(key_seed, "sign")))
            wrong = scheme.PrivateKey(
                automorphisms.sample_automorphism(params, random.Random(derive(key_seed, "wrong")))
            )
            forged = scheme.sign(wrong, params, message, random.Random(derive(key_seed, "forge")))
            pub_text = scheme.public_key_to_text(pub)
            for sig, is_honest in ((honest, True), (forged, False)):
                entries.append((pub_text, message, scheme.signature_to_text(sig), is_honest))
        return entries

    @staticmethod
    def cost(entry) -> int:
        pub_text, _, sig_text, _ = entry
        return len(pub_text) + len(sig_text)

    def op(self, j: int):
        pub_text, message, sig_text, _ = self.pool[j]
        pub = scheme.public_key_from_text(pub_text)
        sig = scheme.signature_from_text(sig_text)
        return sig, scheme.verify(pub, message, sig, rng=self.rng(j))

    @staticmethod
    def result_key(out) -> tuple:
        return _report_key(out[1])

    def check_first(self, j: int, out) -> str | None:
        sig, report = out
        problem = report_problem(report, self.params.trials, self.params.threshold)
        if problem is None:
            self.note_signature(sig)
            self.note_decision(self.pool[j][3], report.accepted)
        return problem

    def cli_check(self, workdir: Path, env: dict[str, str]) -> tuple[list[float], list[str]]:
        """Run ``cubesign verify`` on the first pool entries with each entry's seed.

        Returns wall times in ms (import included) and any exit codes that
        disagree with the library's decision for the same seed.
        """
        times, problems = [], []
        workdir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            for j in range(min(self.profile.cli_runs, len(self.pool))):
                pub_text, message, sig_text, _ = self.pool[j]
                pub_path, sig_path, msg_path = (Path(tmp, f"{j}.{ext}") for ext in ("pub", "sig", "msg"))
                pub_path.write_text(pub_text)
                sig_path.write_text(sig_text)
                msg_path.write_bytes(message)
                accepted = self.op(j)[1].accepted if j not in self.first else self.first[j][0]
                cmd = [sys.executable, "-m", "cubesign", "verify", "--pub", str(pub_path),
                       "--sig", str(sig_path), "--seed", str(self.op_seed(j)), str(msg_path)]
                start = time.perf_counter()
                proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
                times.append(1000 * (time.perf_counter() - start))
                if proc.returncode != (0 if accepted else 1):
                    problems.append(f"cli exit {proc.returncode} for entry {j},"
                                    f" library accepted={accepted}")
        return times, problems


class KeygenSign(Workload):
    """keygen, sign, then write public key, private key and signature to text."""

    name = "keygen_sign"

    def _run(self, key_seed: int, rng: random.Random):
        params = self.params
        priv, pub = scheme.keygen(params, random.Random(key_seed))
        sig = scheme.sign(priv, params, signer_message(key_seed), rng)
        texts = (
            scheme.public_key_to_text(pub),
            scheme.private_key_to_text(params, priv),
            scheme.signature_to_text(sig),
        )
        return priv, pub, sig, texts

    def build(self, k: int) -> list:
        # The same warm-up on fixed signers outside the pool in every round,
        # so that set-up time does not depend on the round or the seed.
        for w in range(WARMUP_SIGNERS):
            self._run(1_000_000 + w, random.Random(w))
        return list(self.key_seeds(k))

    def op(self, j: int):
        return self._run(self.pool[j], self.rng(j))

    @staticmethod
    def result_key(out) -> tuple:
        return out[3]

    def check_first(self, j: int, out) -> str | None:
        priv, pub, sig, (pub_text, priv_text, sig_text) = out
        if sig.poly.nvars != self.params.n + 1:
            return f"signature has {sig.poly.nvars} variables, expected {self.params.n + 1}"
        if scheme.public_key_from_text(pub_text) != pub:
            return "public key text does not round-trip"
        if scheme.private_key_from_text(priv_text) != (self.params, priv):
            return "private key text does not round-trip"
        if scheme.signature_from_text(sig_text) != sig:
            return "signature text does not round-trip"
        self.note_signature(sig)
        return None


class Exhaustive(Workload):
    """Exhaustive verify_poly, then the exact oracle on one (P_i, phi(P_i)) pair (n=14)."""

    name = "exhaustive"

    def build(self, k: int) -> list:
        params, entries = self.params, []
        for key_seed in self.key_seeds(k):
            priv, pub = scheme.keygen(params, random.Random(key_seed))
            q = synth_message_poly(params.n + 1, random.Random(derive(key_seed, "message")))
            honest = scheme.sign_poly(priv, params, q, random.Random(derive(key_seed, "sign")))
            wrong = scheme.PrivateKey(
                automorphisms.sample_automorphism(params, random.Random(derive(key_seed, "wrong")))
            )
            forged = scheme.sign_poly(wrong, params, q, random.Random(derive(key_seed, "forge")))
            j = key_seed % len(pub.base)  # the (P_j, phi(P_j)) pair for the oracle
            for sig, is_honest in ((honest, True), (forged, False)):
                entries.append((pub, q, sig, is_honest, j))
        return entries

    @staticmethod
    def cost(entry) -> int:
        # Approximate: the oracle's pure-Python walk costs about 16 times
        # more per term than the numpy evaluation of the cube.
        pub, _, sig, _, j = entry
        terms = len(sig.poly.terms) + sum(len(p.terms) for p in pub.mapped)
        return terms + 16 * (len(pub.base[j].terms) + len(pub.mapped[j].terms))

    def op(self, j: int):
        pub, q, sig, _, i = self.pool[j]
        report = scheme.verify_poly(pub, q, sig, rng=self.rng(j), exhaustive=True)
        pair = (counting.exact_value_counts(pub.base[i]), counting.exact_value_counts(pub.mapped[i]))
        return report, pair

    @staticmethod
    def result_key(out) -> tuple:
        report, pair = out
        return _report_key(report), pair

    def check_first(self, j: int, out) -> str | None:
        report, (base_counts, mapped_counts) = out
        pub, q, sig, is_honest, _ = self.pool[j]
        m = self.params.n + 1
        problem = report_problem(report, 1 << m, self.params.threshold)
        if problem is not None:
            return problem
        reference_side = [p.widen(m) for p in pub.base] + [q]
        expected = cube_positive_count(report.challenge, reference_side, m)
        if report.reference_positive != expected:
            return f"reference count {report.reference_positive} != {expected} recounted"
        if is_honest and report.count_gap != 0:
            return f"honest exhaustive count gap {report.count_gap} != 0"
        if base_counts != mapped_counts or base_counts.total != 1 << self.params.n:
            return f"exact counts differ: {base_counts} vs {mapped_counts}"
        self.note_signature(sig)
        self.note_decision(is_honest, report.accepted)
        return None


WORKLOADS = {w.name: w for w in (Verify, KeygenSign, Exhaustive)}
