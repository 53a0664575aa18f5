"""The one working-set budget that sizes every blocked loop.

A block of items costing ``per_item`` values each holds ``BLOCK //
per_item`` of them (float64: 256 KiB). The two consumers whose arrays are
the largest by design take ``WIDE`` budgets: a query block's rows
(``MetaFeatureExtractor.query_blocks``) and the k-NN's (query, row,
feature) differences. Each loop reads ``BLOCK`` when it runs,
so one patch of it resizes every block. Loops slice through ``pieces``, but
three count their own steps by ``items``: the k-NN (a query alone may be a
block), the mask search (its sums take their bits from its blocks) and the
bagging groups (a replication alone may be a group).

A tiny budget moves no output bit but the mask search's:
``MaskEvaluator.distances`` sums its fitnesses over row blocks, so the
search's audit and trace may move in their last digits. Every other loop
gathers, reduces per item or formats per row, and the pool's products give
a row the same bits in any block of two or more rows on narrow data.
"""

BLOCK = 1 << 15
WIDE = 64


def items(per_item, budgets=1):
    """Items of ``per_item`` values each that ``budgets`` budgets hold (at
    least 1)."""
    return max(1, budgets * BLOCK // max(1, per_item))


def pieces(n, per_item, budgets=1):
    """Slices of ``n`` items in blocks of as many as ``budgets`` budgets
    hold (at least 2).

    No block holds a lone item unless ``n`` is 1: the pool's matrix products
    take another path for one row, whose supports can differ in the last
    bit from a larger block's, so an item left over joins the block before
    it."""
    step = max(2, items(per_item, budgets))
    starts = list(range(0, n - 1, step)) or [0]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n]) if hi > lo]
