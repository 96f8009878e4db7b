import sys
from pathlib import Path

import pytest

from chromadisk import ChromaticCache

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def shared_cache():
    """One oracle cache for the whole run; the same induced subgraphs recur a lot."""
    return ChromaticCache()
