"""Content-hash incremental cache for lint findings.

The engine's analyses are whole-program, but their *results* are
per-module, and a module's findings can only change when something in
its dependency closure changes.  The cache exploits that: each entry
records the module's content sha, the names in its closure, and a
digest over the closure's (name, sha) pairs.  On the next run a module
whose closure digest still matches is **clean** — its stored findings
are replayed without parsing the file, let alone re-running rules.

Dirty modules still need full context: the runner parses the union of
their closures so the call graph and taint summaries they depend on are
rebuilt exactly, then re-runs rules on the dirty modules only.

The cache lives in one JSON file (default ``.lint-cache/findings.json``)
and is keyed by an engine version string, so any change to the analysis
code invalidates everything at once.  Caching is skipped when a rule
subset is selected: entries always describe a full-rule run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.finding import Finding

#: Bump when analysis semantics change; invalidates every entry.
ENGINE_VERSION = "repro-lint-engine/3"


@dataclass
class CacheEntry:
    """Stored per-module results of the last full-rule run."""

    path: str
    module: str
    sha: str
    closure: list[str]
    closure_sha: str
    findings: list[Finding] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "sha": self.sha,
            "closure": sorted(self.closure),
            "closure_sha": self.closure_sha,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheEntry":
        return cls(
            path=data["path"],
            module=data["module"],
            sha=data["sha"],
            closure=list(data["closure"]),
            closure_sha=data["closure_sha"],
            findings=[
                Finding(
                    path=item["path"],
                    line=int(item["line"]),
                    col=int(item["col"]),
                    rule_id=item["rule"],
                    message=item["message"],
                )
                for item in data["findings"]
            ],
        )


class LintCache:
    """Load/validate/store the single-file findings cache."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_file = Path(cache_dir) / "findings.json"
        self.entries: dict[str, CacheEntry] = {}
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.cache_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if data.get("engine") != ENGINE_VERSION:
            return
        for name, raw in data.get("modules", {}).items():
            try:
                self.entries[name] = CacheEntry.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                continue

    def valid_entry(
        self, name: str, shas: dict[str, str]
    ) -> CacheEntry | None:
        """The stored entry for module ``name`` if still trustworthy.

        ``shas`` maps every module name of the *current* run to its
        content sha (computed without parsing).  The entry is valid when
        the module's own sha matches and every closure member hashes to
        what the stored closure digest was computed from — which the
        runner checks by recomputing the digest over current shas.  A
        closure member that vanished from the run invalidates the entry.
        """
        entry = self.entries.get(name)
        if entry is None or shas.get(name) != entry.sha:
            return None
        if any(member not in shas for member in entry.closure):
            return None
        recomputed = closure_digest(
            {member: shas[member] for member in entry.closure}
        )
        if recomputed != entry.closure_sha:
            return None
        return entry

    def store(self, entry: CacheEntry) -> None:
        self.entries[entry.module] = entry

    def write(self) -> None:
        """Persist atomically (best effort; a failed write is not fatal)."""
        payload = {
            "engine": ENGINE_VERSION,
            "modules": {
                name: entry.to_dict()
                for name, entry in sorted(self.entries.items())
            },
        }
        try:
            self.cache_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.cache_file.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(payload, indent=1, sort_keys=True),
                encoding="utf-8",
            )
            tmp.replace(self.cache_file)
        except OSError:
            pass


def closure_digest(shas: dict[str, str]) -> str:
    """Digest over sorted (module, sha) pairs — must match Program's."""
    import hashlib

    digest = hashlib.sha256()
    for member, sha in sorted(shas.items()):
        digest.update(f"{member}={sha}\n".encode("utf-8"))
    return digest.hexdigest()
