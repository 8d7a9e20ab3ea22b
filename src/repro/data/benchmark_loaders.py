"""Loaders for the public ER benchmark datasets used by the SparkER demo.

The demo runs on the Abt-Buy dataset distributed by the University of Leipzig:
two latin-1 CSV files (``Abt.csv``, ``Buy.csv``) with an ``id`` column plus a
perfect-mapping CSV (``abt_buy_perfectMapping.csv``) whose first two columns
are the original ids of matching records.  The same layout is used by the
other datasets on the page (Amazon-GoogleProducts, DBLP-ACM).

These read that layout through :func:`~repro.data.loaders.load_dataset` and
return the same :class:`~repro.data.dataset.DatasetPair` structure produced by
the synthetic generators, so the whole pipeline, the benchmarks and the debug
session run unchanged on the real data.  Nothing is downloaded: if the files
are absent, callers should fall back to :mod:`repro.data.synthetic`.
"""

from __future__ import annotations

from pathlib import Path

from repro.data.dataset import DatasetPair
from repro.data.loaders import load_dataset


def _load_leipzig(directory: str | Path, files: tuple[str, str, str], name: str) -> DatasetPair:
    source0, source1, mapping = (Path(directory) / file for file in files)
    return load_dataset(
        source0, source1, mapping, id_field="id", encoding="latin-1", name=name
    )


def load_abt_buy(directory: str | Path) -> DatasetPair:
    """Load the Abt-Buy benchmark from a directory with the Leipzig file names.

    Expects ``Abt.csv``, ``Buy.csv`` and ``abt_buy_perfectMapping.csv`` inside
    ``directory``.
    """
    files = ("Abt.csv", "Buy.csv", "abt_buy_perfectMapping.csv")
    return _load_leipzig(directory, files, "abt-buy")


def load_amazon_google(directory: str | Path) -> DatasetPair:
    """Load the Amazon-GoogleProducts benchmark (same Leipzig layout)."""
    files = ("Amazon.csv", "GoogleProducts.csv", "Amzon_GoogleProducts_perfectMapping.csv")
    return _load_leipzig(directory, files, "amazon-google")


def load_dblp_acm(directory: str | Path) -> DatasetPair:
    """Load the DBLP-ACM citation benchmark (same Leipzig layout)."""
    files = ("DBLP2.csv", "ACM.csv", "DBLP-ACM_perfectMapping.csv")
    return _load_leipzig(directory, files, "dblp-acm")
