"""The one working-set budget that sizes every blocked loop.

A block of items costing ``per_item`` values each holds ``BLOCK //
per_item`` of them (float64: 256 KiB). The two consumers whose arrays are
the largest by design take ``WIDE`` budgets: a query block's rows
(``MetaFeatureExtractor.query_blocks``) and the k-NN's (query, row,
feature) differences. Each loop reads ``BLOCK`` when it runs, so one patch
of it resizes every block. Every loop slices through ``pieces``; the mask
search also sizes its buffers by ``items``.

A tiny budget moves no output bit but the mask search's:
``MaskEvaluator.distances`` sums its fitnesses over row blocks, so the
search's audit and trace may move in their last digits. Every other loop
gathers, reduces per item or formats per row.
"""

BLOCK = 1 << 15
WIDE = 64


def items(per_item, budgets=1):
    """Items of ``per_item`` values each that ``budgets`` budgets hold (at
    least 1)."""
    return max(1, budgets * BLOCK // max(1, per_item))


def pieces(n, per_item, budgets=1):
    """Slices of ``n`` items in blocks of ``items(per_item, budgets)``, the
    last one holding what is left."""
    step = items(per_item, budgets)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
