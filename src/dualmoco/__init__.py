"""Dual momentum contrast at desk scale.

Aligns sentence representations from two token vocabularies into one metric
space using twin encoder towers, momentum-averaged key encoders, and large
FIFO negative queues, then evaluates the space with nearest-neighbor
retrieval, margin-based bitext mining, and rank-correlation scoring on
synthetic corpora with exact gold labels.
"""

__version__ = "0.1.0"
