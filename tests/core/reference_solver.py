"""The rescanning solver searches, kept as the solver's reference.

Each candidate allocation is scored by the public
:meth:`~repro.core.solver.PerformanceSolver.objective` (one
``class_utility`` call per class, summed from ``0.0`` left to right), with
no row, memo or screen: what the solver's exhaustive enumeration and greedy
ascent must reproduce bit for bit — units, score, tie-breaks, NaN skipping
and the evaluation count.  ``_compositions`` is the enumeration order the
exhaustive search walks.  A test reference, not part of the package.
"""

import math


def _compositions(total, parts):
    """Yield every tuple of ``parts`` non-negative ints summing to ``total``,
    first part ascending, then the next."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def reference_exhaustive(solver, statuses, total_units, min_units, mix=None):
    """Every full allocation scored by the full objective; first best wins,
    NaN scores skipped, the even split when nothing scores."""
    count = len(statuses)
    free = total_units - min_units * count
    base, remainder = divmod(free, count)
    best_units = tuple(
        min_units + base + (1 if index < remainder else 0) for index in range(count)
    )
    best_score = float("nan")
    for combo in _compositions(free, count):
        units = tuple(min_units + c for c in combo)
        score = solver.objective(statuses, [u * solver.grid for u in units], mix)
        if math.isnan(score):
            continue
        if math.isnan(best_score) or score > best_score:
            best_units, best_score = units, score
    return best_units, best_score


def reference_greedy(solver, statuses, total_units, min_units, mix=None):
    """The single-unit-transfer ascent, rescanning every move with the
    full objective."""
    count = len(statuses)
    grid = solver.grid
    current_total = 0.0
    for status in statuses:
        current_total += max(status.current_limit, 1.0)
    units = []
    for status in statuses:
        share = max(status.current_limit, 1.0) / current_total
        units.append(max(min_units, int(round(share * total_units))))
    while sum(units) > total_units:
        index = max(range(count), key=lambda i: units[i])
        if units[index] <= min_units:
            break
        units[index] -= 1
    while sum(units) < total_units:
        index = min(range(count), key=lambda i: units[i])
        units[index] += 1

    def score_of(candidate):
        return solver.objective(statuses, [u * grid for u in candidate], mix)

    best_score = score_of(units)
    improved = True
    while improved:
        improved = False
        best_move = None
        for donor in range(count):
            if units[donor] <= min_units:
                continue
            for recipient in range(count):
                if recipient == donor:
                    continue
                candidate = list(units)
                candidate[donor] -= 1
                candidate[recipient] += 1
                score = score_of(candidate)
                if math.isnan(score):
                    continue
                improves = math.isnan(best_score) or score > best_score
                if improves and (best_move is None or score > best_move[0]):
                    best_move = (score, donor, recipient)
        if best_move is not None:
            best_score, donor, recipient = best_move
            units[donor] -= 1
            units[recipient] += 1
            improved = True
    return tuple(units), best_score


def same_float(left, right):
    """Bitwise float equality, with NaN equal to NaN."""
    return (math.isnan(left) and math.isnan(right)) or (
        left == right and math.copysign(1.0, left) == math.copysign(1.0, right)
    )
