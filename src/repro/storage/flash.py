"""Page-based NAND flash model.

Mote flash (e.g. the AT45DB on MICA2-class hardware) is written in
whole pages, sequentially, and erased in blocks; page reads and writes
have fixed energy costs that dominate local-storage budgets. The model
exposes exactly the operations MicroHash needs — append a page, read a
page — and meters them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, StorageFullError, StorageError


@dataclass
class FlashStats:
    """Operation counters and energy for one flash device."""

    page_writes: int = 0
    page_reads: int = 0
    joules: float = 0.0


class FlashModel:
    """A sequential-append flash device holding fixed-size pages.

    Attributes:
        page_bytes: Page size (AT45DB-style 264/512-byte pages).
        pages: Device capacity in pages.
        write_joules / read_joules: Per-page operation energy (values
            follow the MicroHash paper's measurements: writes cost
            several times reads).
    """

    def __init__(self, page_bytes: int = 512, pages: int = 2048,
                 write_joules: float = 76e-6, read_joules: float = 24e-6):
        if page_bytes < 1 or pages < 1:
            raise ConfigurationError("flash geometry must be positive")
        if write_joules < 0 or read_joules < 0:
            raise ConfigurationError("flash energy costs must be non-negative")
        self.page_bytes = page_bytes
        self.capacity_pages = pages
        self.write_joules = write_joules
        self.read_joules = read_joules
        self.stats = FlashStats()
        self._pages: list[object] = []

    def __len__(self) -> int:
        return len(self._pages)

    def append_page(self, payload: object) -> int:
        """Write one page at the append point, returning its page number."""
        if not self._pages and self.capacity_pages == 0:
            raise StorageFullError("flash device has zero capacity")
        if len(self._pages) >= self.capacity_pages:
            raise StorageFullError(
                f"flash full: {self.capacity_pages} pages written"
            )
        self._pages.append(payload)
        self.stats.page_writes += 1
        self.stats.joules += self.write_joules
        return len(self._pages) - 1

    def read_page(self, page_number: int) -> object:
        """Read one page by number, charging read energy."""
        if not 0 <= page_number < len(self._pages):
            raise StorageError(f"page {page_number} has not been written")
        self.stats.page_reads += 1
        self.stats.joules += self.read_joules
        return self._pages[page_number]

    def erase(self) -> None:
        """Bulk erase (new deployment); counters keep accumulating."""
        self._pages.clear()
