"""Serve N asyncio cache shards from one process until stdin closes.

Prints the shards' ``host:port`` addresses, comma-separated, on one line
once every shard is accepting, then blocks reading stdin; end of input (the
benchmark closing the pipe, or exiting) shuts the shards down.

    python3 perfbench/shards.py 2
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cacheserver import AsyncCacheServer  # noqa: E402


def main(count: int) -> None:
    shards = [AsyncCacheServer().start() for _ in range(count)]
    try:
        print(",".join(shard.url for shard in shards), flush=True)
        sys.stdin.read()
    finally:
        for shard in shards:
            shard.shutdown()


if __name__ == "__main__":
    main(int(sys.argv[1]))
