"""Expected filter documents and concerned sets, by brute force over the records.

Written apart from the engine: it reads only ``gen.Records`` and follows the
paper's rules directly. A viewpoint covers an artifact when it targets the
artifact or one of its ancestors; every matching rule contributes its grants
and the lowest level per batch wins; the merge over covering viewpoints keeps
the lowest level per batch and the union of the viewpoints that granted it.
"""

from __future__ import annotations

from gen import Records, Vp


class Oracle:
    def __init__(self, records: Records):
        self.records = records
        self._levels: dict[str, dict[str, int]] = {}
        self.by_actor: dict[str, list[Vp]] = {a: [] for a in records.competences}
        for vp in records.viewpoints:
            self.by_actor[vp.actor].append(vp)

    def levels(self, vp: Vp) -> dict[str, int]:
        """Batch -> level granted to one viewpoint by every rule it matches."""
        if vp.id not in self._levels:
            competence = self.records.competences[vp.actor][vp.discipline]
            out: dict[str, int] = {}
            for rule in self.records.rules:
                if (
                    rule.discipline in ("*", vp.discipline)
                    and rule.activity in ("*", vp.activity)
                    and competence >= rule.min_competence
                ):
                    for batch, level in rule.grants:
                        out[batch] = min(level, out.get(batch, level))
            self._levels[vp.id] = out
        return self._levels[vp.id]

    def covering(self, actor: str, artifact: str) -> list[Vp]:
        """The actor's viewpoints on the artifact or an ancestor, by competence then id."""
        chain = set()
        node: str | None = artifact
        while node is not None and node not in chain:
            chain.add(node)
            node = self.records.parent[node]
        found = [vp for vp in self.by_actor[actor] if vp.target in chain]
        comp = self.records.competences[actor]
        return sorted(found, key=lambda vp: (-comp[vp.discipline], vp.id))

    def filter_doc(self, actor: str, artifact: str, audit: bool = True) -> dict:
        vps = self.covering(actor, artifact)
        merged: dict[str, tuple[int, set[str]]] = {}
        for vp in vps:
            for batch, level in self.levels(vp).items():
                old_level, prov = merged.get(batch, (level, set()))
                merged[batch] = (min(old_level, level), prov | {vp.id})
        doc = {
            "actor_id": actor,
            "artifact_id": artifact,
            "entries": [
                {"batch": b, "level": lvl, "provenance": sorted(prov)} for b, (lvl, prov) in sorted(merged.items())
            ],
        }
        if audit:
            doc["audit"] = [
                {
                    "viewpoint_id": vp.id,
                    "entries": [
                        {"batch": b, "level": lvl, "provenance": [vp.id]} for b, lvl in sorted(self.levels(vp).items())
                    ],
                }
                for vp in vps
            ]
        return doc

    def batches(self, actor: str, artifact: str) -> list[str]:
        return sorted({b for vp in self.covering(actor, artifact) for b in self.levels(vp)})

    def concerned(self, artifact: str, batch: str, author: str) -> list[str]:
        """Every other actor whose own filter result on the artifact holds the batch."""
        return sorted(
            a
            for a in self.by_actor
            if a != author and any(batch in self.levels(vp) for vp in self.covering(a, artifact))
        )
