"""Place/transition-net model of a blockchain ledger.

Addresses are places and transactions are transitions; the sparse pre
and post incidence matrices drive entity clustering, disposable-address
chain tracing, and degree statistics.
"""

from .analytics import (
    CcdfSeries,
    DegreeMultiset,
    RepeatGroups,
    SummaryReport,
    accumulate_only,
    ccdf,
    ccdf_to_csv,
    degree_multiset,
    repeat_report,
    repeated_groups,
    summary,
    top_k_active,
)
from .chains import (
    Chain,
    DisposableSets,
    build_chains,
    chain_report,
    disposable_addresses,
    disposable_transactions,
    write_chain_report,
)
from .entities import (
    EntityNet,
    EntityPartition,
    build_entity_net,
    compute_entities,
    cyclic_transitions,
    entity_report,
    write_entity_report,
)
from .errors import (
    BlockOrderingError,
    BlockParseError,
    BlockValidationError,
    ChainIntegrityError,
    ChainPetriError,
    DuplicateTransactionError,
    GeneratorConfigError,
    MalformedTransactionError,
    NetNotSealedError,
    NetSealedError,
    PartitionMismatchError,
    SnapshotError,
)
from .ingest import (
    Block,
    IngestReport,
    RawBlockReport,
    convert_rawblock,
    encode_block,
    ingest,
    parse_block,
)
from .net import PlaceTransitionNet, SparseIncidence, load_snapshot
from .synthetic import GeneratorConfig, SyntheticGroundTruth, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockOrderingError",
    "BlockParseError",
    "BlockValidationError",
    "CcdfSeries",
    "Chain",
    "ChainIntegrityError",
    "ChainPetriError",
    "DegreeMultiset",
    "DisposableSets",
    "DuplicateTransactionError",
    "EntityNet",
    "EntityPartition",
    "GeneratorConfig",
    "GeneratorConfigError",
    "IngestReport",
    "MalformedTransactionError",
    "NetNotSealedError",
    "NetSealedError",
    "PartitionMismatchError",
    "PlaceTransitionNet",
    "RawBlockReport",
    "RepeatGroups",
    "SnapshotError",
    "SparseIncidence",
    "SummaryReport",
    "SyntheticGroundTruth",
    "accumulate_only",
    "build_chains",
    "build_entity_net",
    "ccdf",
    "ccdf_to_csv",
    "chain_report",
    "compute_entities",
    "convert_rawblock",
    "cyclic_transitions",
    "degree_multiset",
    "disposable_addresses",
    "disposable_transactions",
    "encode_block",
    "entity_report",
    "generate_synthetic",
    "ingest",
    "load_snapshot",
    "parse_block",
    "repeat_report",
    "repeated_groups",
    "summary",
    "top_k_active",
    "write_chain_report",
    "write_entity_report",
]
