"""Activity features per dealer and their partition into ordered activity tiers.

Features are computed strictly from the training interval (days before the
split boundary).  Clustering is k-means with k-means++ seeding on
z-normalized features, deterministic under a seed, with explicit repair of
empty clusters.  Labels are then permuted so that label 0 is the least
active tier.  A label that no dealer holds is absent from the labels, so a
caller finds empty tiers there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from .market import DealerHistory, write_rows
from .seeding import rng_for

# the activity features of a dealer's vector, in vector order
FEATURES = ("total_trades", "distinct_bonds", "active_day_fraction", "buy_ratio",
            "mean_trades_per_active_day")
# the activity tiers, least active first: clusters.csv labels are their indices
TIER_NAMES = ("least", "less", "more", "most")
TIERS = len(TIER_NAMES)
MAX_ITER = 100  # Lloyd iterations at most


@dataclass
class ClusterAssignment:
    labels: dict[str, int]
    wcss_history: tuple[float, ...] = ()  # within-cluster sum of squares per iteration


def compute_dealer_features(
    histories: list[DealerHistory], boundary: int
) -> dict[str, np.ndarray]:
    """Per-dealer activity features over day indices [0, boundary): one
    float64 vector per dealer, in :data:`FEATURES` order, all zero for a
    dealer without a trade there."""
    if boundary < 0:
        raise ContractError(f"boundary {boundary} must be nonnegative")
    out: dict[str, np.ndarray] = {}
    for h in histories:
        if boundary > h.day_vectors.shape[0]:
            raise ContractError(
                f"boundary {boundary} exceeds calendar of {h.day_vectors.shape[0]} days"
            )
        window = h.day_vectors[:boundary]
        v = window.shape[1] // 2
        total = int(window.sum())
        if total == 0:
            out[h.dealer_id] = np.zeros(len(FEATURES))
            continue
        buys = int(window[:, :v].sum())
        bond_hit = window[:, :v] | window[:, v:]
        distinct = int((bond_hit.any(axis=0)).sum())
        active_days = int((window.any(axis=1)).sum())
        out[h.dealer_id] = np.array(
            [total, distinct, active_days / boundary, buys / total, total / active_days],
            dtype=np.float64)
    return out


def _z_normalize(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    z = np.zeros_like(x)
    nonconstant = std > 0
    z[:, nonconstant] = (x[:, nonconstant] - mean[nonconstant]) / std[nonconstant]
    return z


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(n))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centroids[j] = x[pick]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_cluster(
    features: dict[str, np.ndarray],
    k: int = TIERS,
    seed: int = 0,
) -> ClusterAssignment:
    """Lloyd iterations from a k-means++ seeding, deterministic under seed.

    An empty cluster is repaired by moving the farthest point of the
    largest cluster into it; when that point sits on its centroid (zero
    spread) the cluster stays empty.  Fewer dealers than k gives one
    singleton cluster per dealer.  Labels no dealer holds are absent from
    the result's labels.
    """
    if k < 1:
        raise ContractError(f"kmeans_cluster needs k >= 1, got {k}")
    dealer_ids = list(features)
    n = len(dealer_ids)
    if n == 0:
        raise ContractError("kmeans_cluster needs at least one dealer")
    if n < k:
        return ClusterAssignment({d: i for i, d in enumerate(dealer_ids)})
    z = _z_normalize(np.stack(list(features.values())))

    rng = rng_for(seed, "kmeans")
    centroids = _kmeanspp_init(z, k, rng)
    labels = np.full(n, -1, dtype=np.intp)
    wcss_history: list[float] = []
    for _ in range(MAX_ITER):
        dist2 = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist2.argmin(axis=1)

        for c in range(k):
            if (new_labels == c).any():
                continue
            counts = np.bincount(new_labels, minlength=k)
            biggest = int(counts.argmax())
            members = np.flatnonzero(new_labels == biggest)
            far = members[int(dist2[members, biggest].argmax())]
            if dist2[far, biggest] > 0.0:
                new_labels[far] = c

        for c in range(k):
            members = new_labels == c
            if members.any():
                centroids[c] = z[members].mean(axis=0)
        dist2 = ((z - centroids[new_labels]) ** 2).sum(axis=1)
        wcss_history.append(float(dist2.sum()))

        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    return ClusterAssignment(
        labels={d: int(labels[i]) for i, d in enumerate(dealer_ids)},
        wcss_history=tuple(wcss_history),
    )


def order_clusters(
    assignment: ClusterAssignment, features: dict[str, np.ndarray]
) -> ClusterAssignment:
    """Renumber the populated labels 0, 1, ... so mean total_trades is
    nondecreasing in the label.

    Ties break by mean distinct bonds, then by the original label, so the
    ordering is stable and deterministic.
    """
    members: dict[int, list[np.ndarray]] = {}
    for dealer, label in assignment.labels.items():
        members.setdefault(label, []).append(features[dealer][:2])  # total_trades, distinct_bonds

    def sort_key(label: int):
        total, distinct = np.mean(members[label], axis=0)
        return (total, distinct, label)

    relabel = {old: new for new, old in enumerate(sorted(members, key=sort_key))}
    return replace(assignment, labels={d: relabel[c] for d, c in assignment.labels.items()})


def save_assignment(path, assignment: ClusterAssignment, histories_sha256: str) -> None:
    """A ``histories_sha256,<hex>`` line naming the SHA-256 of the
    ``histories.bin`` bytes the tiers were computed from, then
    comma-separated lines of dealer_id, cluster_label (ascending dealer id)."""
    write_rows(path, [("histories_sha256", histories_sha256), *sorted(assignment.labels.items())])

