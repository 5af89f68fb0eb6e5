"""Deterministic base-and-strong-generating-set construction.

The classic bottom-up Schreier-Sims algorithm: maintain a base, per-level
strong generator lists and orbit transversals, and verify levels from the
deepest upward by sifting every Schreier generator through the chain below.
No randomisation is used anywhere, so equal inputs give equal structures.

Transversal convention: transversal[beta] is an element u with u(base) = beta,
and sifting uses p <- p * transversal[beta]^-1 to fix the base point.

No library route calls it: every group is enumerated by a bounded walk
over its Cayley graph (``group.PermGroup``), which gives its order, and a
group past the walk's bound raises the element cap.  The tests read it as
an order oracle independent of that walk; it stays in the package only
while the benchmark's tracer names it.
"""

from __future__ import annotations

from .perm import Permutation


class Bsgs:
    def __init__(self, degree: int, generators):
        self.degree = degree
        self.base: list[int] = []
        # level_gens[i] generates the stabiliser of base[:i]
        self.level_gens: list[list[Permutation]] = []
        self.transversals: list[dict[int, Permutation]] = []
        self.inv_transversals: list[dict[int, Permutation]] = []
        gens = [g for g in generators if not g.is_identity]
        for g in gens:
            if all(g(b) == b for b in self.base):
                self._append_level(self._min_moved(g))
        for i in range(len(self.base)):
            self.level_gens[i] = [g for g in gens if all(g(b) == b for b in self.base[:i])]
            self._recompute_orbit(i)
        k = len(self.base) - 1
        while k >= 0:
            found = self._verify_level(k)
            if found is None:
                k -= 1
                continue
            residue, level = found
            if level == len(self.base):
                self._append_level(self._min_moved(residue))
            for i in range(k + 1, level + 1):
                self.level_gens[i].append(residue)
                self._recompute_orbit(i)
            k = level

    def _min_moved(self, p: Permutation) -> int:
        return min(i for i in range(self.degree) if p(i) != i)

    def _append_level(self, point: int) -> None:
        ident = Permutation.identity(self.degree)
        self.base.append(point)
        self.level_gens.append([])
        self.transversals.append({point: ident})
        self.inv_transversals.append({point: ident})

    def _recompute_orbit(self, i: int) -> None:
        point = self.base[i]
        gens = self.level_gens[i]
        ident = Permutation.identity(self.degree)
        trans = {point: ident}
        queue = [point]
        while queue:
            beta = queue.pop(0)
            u = trans[beta]
            for g in gens:
                delta = g(beta)
                if delta not in trans:
                    trans[delta] = u * g
                    queue.append(delta)
        self.transversals[i] = trans
        self.inv_transversals[i] = {b: u.inverse() for b, u in trans.items()}

    def _strip(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Sift p through levels >= start; return (residue, level it stuck at)."""
        for i in range(start, len(self.base)):
            beta = p(self.base[i])
            u_inv = self.inv_transversals[i].get(beta)
            if u_inv is None:
                return p, i
            p = p * u_inv
        return p, len(self.base)

    def _verify_level(self, k: int):
        trans = self.transversals[k]
        for beta in sorted(trans):
            u = trans[beta]
            for g in self.level_gens[k]:
                schreier = u * g * self.inv_transversals[k][g(beta)]
                if schreier.is_identity:
                    continue
                residue, level = self._strip(schreier, k + 1)
                if not residue.is_identity:
                    return residue, level
        return None

    @property
    def order(self) -> int:
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n
