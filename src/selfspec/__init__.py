"""Lossless speculative decoding for masked-diffusion text generation.

The model drafts the masked positions of the current block (and of the next
one when the current block holds too few) in one forward pass, a
verification tree re-checks the most confident candidates in one batched
forward, and the accepted prefix is guaranteed token-identical to plain
stepwise decoding.
"""

__version__ = "0.1.0"
