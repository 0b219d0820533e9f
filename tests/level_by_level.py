"""Branch-and-bound with one evaluator call per depth level: the oracle
that ``interval.certify_lower_bound`` must match on every certificate
field but ``elapsed_s``, retained boxes bit for bit."""

import numpy as np

from cp2tori.errors import IntervalDomainError
from cp2tori.interval import (MAX_BOXES, MAX_DEPTH, Certificate, CertStatus,
                              IntervalArray)


def certify_level_by_level(target, evaluator, root, threshold, *, clip=None,
                           epsilon=0.0, max_depth=MAX_DEPTH, max_boxes=MAX_BOXES,
                           notes=()):
    """Prove ``evaluator > threshold`` on ``root`` as ``certify_lower_bound``
    does, enclosing each level's kept boxes in a call of their own."""
    if clip is None:
        def clip(xlo, xhi, ylo, yhi):
            return xlo, xhi, ylo, yhi, np.ones_like(xlo, dtype=bool)
    boxes = np.array([root], dtype=np.float64)
    xlo, xhi, ylo, yhi = boxes[0]
    if not (xlo <= xhi and ylo <= yhi):
        raise IntervalDomainError(f"invalid root box {tuple(root)}")
    depth = 0
    examined = 0
    retained = []
    status = CertStatus.PROVED
    witness = None
    deepest_note = None

    while boxes.shape[0]:
        examined += boxes.shape[0]
        if examined > max_boxes:
            status = CertStatus.INCONCLUSIVE
            deepest_note = f"box budget {max_boxes} exhausted at depth {depth}"
            break
        xlo, xhi, ylo, yhi, keep = clip(boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3])
        boxes = np.column_stack([xlo, xhi, ylo, yhi])[keep]
        if not boxes.shape[0]:
            break
        enc = evaluator(IntervalArray(boxes[:, 0], boxes[:, 1]),
                        IntervalArray(boxes[:, 2], boxes[:, 3]))
        proved = enc.lo > threshold
        disproved = np.isfinite(enc.hi) & (enc.hi < threshold)
        if proved.any():
            retained.append(boxes[proved])
        if disproved.any():
            rows, upper = boxes[disproved], enc.hi[disproved]
            mx, my = 0.5 * (rows[:, 0] + rows[:, 1]), 0.5 * (rows[:, 2] + rows[:, 3])
            inside = np.flatnonzero(clip(mx, mx, my, my)[4])
            if inside.size:
                i = inside[0]
                status = CertStatus.FAILED
                witness = (float(mx[i]), float(my[i]), float(upper[i]))
                break
        todo = boxes[~proved]
        if not todo.shape[0]:
            break
        if depth >= max_depth:
            status = CertStatus.INCONCLUSIVE
            deepest_note = f"max depth {max_depth} reached; undecided box {todo[0].tolist()}"
            break
        # split at the middle of the wider side (x on a tie)
        rows = np.arange(todo.shape[0])
        lo = np.where(todo[:, 1] - todo[:, 0] >= todo[:, 3] - todo[:, 2], 0, 2)
        mids = 0.5 * (todo[rows, lo] + todo[rows, lo + 1])
        left, right = todo.copy(), todo.copy()
        left[rows, lo + 1] = mids
        right[rows, lo] = mids
        boxes = np.vstack([left, right])
        depth += 1

    return Certificate(
        target=target, threshold=threshold, epsilon=epsilon, status=status,
        boxes_examined=examined, max_depth_reached=depth,
        retained_boxes=np.vstack(retained) if retained else np.empty((0, 4)),
        witness=witness, notes=list(notes) + ([deepest_note] if deepest_note else []))
