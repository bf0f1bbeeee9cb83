"""The dense lattice reference: one right-to-left recursion over the dense
(T, T) transition scores, parameterised by its reduction, and the
log_partition and Viterbi references built on it, one query and one
intent row at a time.  It is written independently of the packed,
structured sweeps in jmrm.lattice; the enumeration oracles reach only tiny
lattices, and this pins SNIPS-sized ones.

With logsumexp it is the dense sum-product kernel that the sweeps replaced,
so its bits are theirs: the forward pass sweeps the reversed positions over
trans.T, whose F-ordered temporaries numpy sums in index order, and the
backward pass sums C-ordered rows, which numpy sums pairwise.  With max it
gives the best completions, which do not round.
"""

import numpy as np

from jmrm.lattice import joint_score, logsumexp
from jmrm.masks import apply_relation_mask


def ref_sweep(fe, trans, last, reduce=logsumexp):
    """h[..., m-1, :] = last and, right to left over an (..., m, T) array,
    h[..., i, o] = reduce_p(trans[o, p] + fe[..., i+1, p] + h[..., i+1, p])."""
    h = np.empty(fe.shape)
    h[..., -1, :] = last
    for i in range(fe.shape[-2] - 2, -1, -1):
        ahead = fe[..., i + 1, :] + h[..., i + 1, :]
        h[..., i, :] = reduce(trans + ahead[..., None, :], axis=-1)
    return h


def ref_completions(jin):
    """One query's best completions after t_i = o under each intent, (Y, m, T)."""
    fe = apply_relation_mask(jin.f_o, jin.rm, slice(None))
    return np.stack([ref_sweep(f, jin.tm.trans, 0.0, np.max) for f in fe])


def ref_log_partition_dense(jin):
    """One query's (log Z, q, unary marginals), one intent at a time; an
    infeasible intent gets zero mass."""
    fe = apply_relation_mask(jin.f_o, jin.rm, slice(None))  # (Y, m, T)
    trans, start = jin.tm.trans, jin.tm.start
    alpha = np.stack([ref_sweep(f[::-1], trans.T, start)[::-1] for f in fe]) + fe
    beta = np.stack([ref_sweep(f, trans, 0.0) for f in fe])
    intent_score = jin.lam * jin.f_l
    log_joint = intent_score + logsumexp(alpha[:, -1], axis=-1)
    log_z = float(logsumexp(log_joint, axis=0))
    unary = np.exp(intent_score[:, None, None] + alpha + beta - log_z)
    return log_z, np.exp(log_joint - log_z), unary


def ref_viterbi(jin):
    """One query's best (y, path, score): the lowest intent, then the
    lexicographically smallest path on ties, picked greedily from the
    best completions."""
    fe = apply_relation_mask(jin.f_o, jin.rm, slice(None))
    h = ref_completions(jin)
    first = jin.tm.start + fe[:, 0] + h[:, 0]  # (Y, T)
    y = int(np.argmax(jin.lam * jin.f_l + np.max(first, axis=1)))
    path = [int(np.argmax(first[y]))]
    acc = jin.tm.start[path[0]] + fe[y, 0, path[0]]
    for i in range(1, jin.n_positions):
        cand = acc + jin.tm.trans[path[-1]] + fe[y, i] + h[y, i]
        path.append(int(np.argmax(cand)))
        acc = acc + jin.tm.trans[path[-2], path[-1]] + fe[y, i, path[-1]]
    return y, path, joint_score(y, np.array(path), jin)
