"""The line Gram G = C C^H as one dense sum(rows)-square array, the reference
the model's carrier-pair storage (`CovarianceModel._line_gram`) is checked
against.  The package itself never forms it."""

import numpy as np


def dense_line_gram(model):
    """G assembled from the model's stored block pairs: a block's own carrier
    pairs on the diagonals of their blocks of G, and two blocks' pair above
    G's diagonal with its conjugate transpose below."""
    spans = model._block_spans
    size = spans[-1][1] if spans else 0
    gram = np.zeros((size, size), model.dtype)
    for (k, l), pairs in model._line_gram.items():
        (lo_k, hi_k), (lo_l, hi_l) = spans[k], spans[l]
        if k < l:
            gram[lo_k:hi_k, lo_l:hi_l] = pairs
            gram[lo_l:hi_l, lo_k:hi_k] = pairs.conj().T
            continue
        length = pairs.shape[2]
        for (i, j) in np.ndindex(pairs.shape[:2]):
            rows, cols = lo_k + i * length, lo_k + j * length
            np.fill_diagonal(gram[rows:rows + length, cols:cols + length], pairs[i, j])
    return gram


def dense_bincount_line_gram(model):
    """G built one dense bincount of len_p * len_q bins per carrier pair, with
    no structure assumed: the independent reference for the stored pairs."""
    carriers = model._carriers
    size = carriers[-1][-1] if carriers else 0
    gram = np.zeros((size, size), model.dtype)
    for p, (_, rows_p, len_p, w_p, lo_p, hi_p) in enumerate(carriers):
        for q, (_, rows_q, len_q, w_q, lo_q, hi_q) in enumerate(carriers[p:], p):
            key = rows_p * len_q + rows_q
            weight = w_p.real ** 2 + w_p.imag ** 2 if p == q else w_p * np.conj(w_q)
            pair = np.bincount(key, weight.real, len_p * len_q)
            if np.iscomplexobj(weight):
                pair = pair + 1j * np.bincount(key, weight.imag, len_p * len_q)
            pair = pair.reshape(len_p, len_q)
            gram[lo_p:hi_p, lo_q:hi_q] = pair
            gram[lo_q:hi_q, lo_p:hi_p] = pair.conj().T
    return gram
