#!/usr/bin/env python3
"""Compare two or more cloudmap binary snapshots longitudinally.

Usage: diff_snapshots.py A.snap B.snap [C.snap ...]
       diff_snapshots.py --shard-parts PART [PART ...] [--expect-complete]

Independently re-implements the snapshot reader (format spec: DESIGN.md §7
and §11, src/io/snapshot.h, src/io/snapshot_v3.h) so CI cross-checks the C++
codec: magic, format version (3 only; the retired v1/v2 layouts are refused
naming their version), and every section CRC are verified with Python's
zlib.crc32 before anything is compared. The flat-fabric blob's directory is
walked directly (the same records FabricView serves from). Prints the
segment- and pin-level churn between the two runs — the same
added/removed/re-confirmed/re-pinned classes `cloudmap_cli diff` reports —
plus per-segment confidence drift and the metadata of each side. The
optional hazard section (id 8) is decoded when present and each side's
hazard profile is reported.

With more than two snapshots the tool switches to a longitudinal summary:
one turnover row per consecutive pair (added/removed/re-confirmed segments,
re-pinned addresses, mean confidence drift) — the table the churn scorecard
and the HazardMatrix ctest read to check that a snapshot sequence
reconstructs planted peering turnover.

With --shard-parts the arguments are campaign shard part files (the
"CMSHARD2" interchange format of `cloudmap_cli campaign --shard`, spec in
src/io/shard.h) instead of snapshots — any subset of a round's parts, so a
half-finished distributed campaign can be audited in place. The reader is
again independent of the C++ codec: header layout, the header CRC-32, each
record's payload CRC-32, round-robin item ownership (item j belongs to
shard j % N), and strictly increasing canonical order are all re-checked
here, and the tool prints a coverage summary (which shard indices are
present, records vs. owned items). Partial sets exit 0 unless
--expect-complete is given.

Exit status: 0 when all files parse (identical or not); 1 on a *semantic*
failure — --expect-identical with a differing pair, --expect-complete with
shards missing, or a part set mixing campaigns/rounds; 2 when any input
file is truncated, corrupt, or not the claimed format at all, with a
stderr diagnostic naming the byte offset of the violation (the
untrusted-input contract, DESIGN.md §14 — garbage in must be a clean
diagnosis, never a traceback). Whole-file byte equality across runs is NOT
expected (the stage-metrics section carries real wall-clock timings);
equality of the *results* is. Use `cloudmap_cli diff` when you need the
full per-segment listing; this tool is the CI-friendly summary.
"""
import argparse
import struct
import sys
import zlib

MAGIC = b"CMSNAP"
FORMAT_VERSION = 3
HEADER = struct.Struct("<6sHI")
TABLE_ENTRY = struct.Struct("<IQQI")

FLAT_MAGIC = 0x33464D43  # "CMF3", little-endian
# V3Segment prefix through rounds_mask (spans and floats read separately).
V3_SEGMENT = struct.Struct("<IIIIiBBBBIIIII")
V3_SEGMENT_SIZE = 80
V3_PIN = struct.Struct("<IIBBHi")
V3_PIN_SIZE = 16

# Campaign shard part files (src/io/shard.h): fixed 56-byte header (52
# identity bytes + their CRC-32), then record_count x { u64 item | u32 size
# | payload | u32 CRC-32(payload) }.
SHARD_MAGIC = b"CMSHARD2"
SHARD_HEADER = struct.Struct("<8sQIIIQQQI")

CONFIRMATION_NAMES = [
    "unconfirmed", "ixp_client", "hybrid", "reachability", "alias_relabel",
]


class SnapshotError(Exception):
    """Semantic failure over well-formed inputs (mixed part sets,
    --expect-complete with missing shards): exit 1."""


class ParseError(SnapshotError):
    """Malformed input bytes — truncation, bad magic, CRC mismatch, fields
    out of range. Always names the offending byte offset: exit 2."""


class Cursor(object):
    """Bounds-checked little-endian reader over one section payload."""

    def __init__(self, data, label):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise ParseError(
                "section %s truncated at offset %d (need %d more bytes, "
                "%d remain)" % (self.label, self.pos, size,
                                len(self.data) - self.pos))
        values = struct.unpack_from("<" + fmt, self.data, self.pos)
        self.pos += size
        return values if len(values) > 1 else values[0]

    def done(self):
        if self.pos != len(self.data):
            raise ParseError("section %s has %d trailing bytes at offset %d"
                             % (self.label, len(self.data) - self.pos,
                                self.pos))


def read_snapshot(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < HEADER.size:
        raise ParseError("%s: %d bytes, shorter than the %d-byte header"
                         % (path, len(blob), HEADER.size))
    magic, version, section_count = HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError("%s: bad magic at offset 0 (not a cloudmap "
                         "snapshot)" % path)
    if version != FORMAT_VERSION:
        raise ParseError("%s: format version %d at offset 6, expected %d"
                         % (path, version, FORMAT_VERSION))

    sections = {}
    table_end = HEADER.size + section_count * TABLE_ENTRY.size
    if table_end > len(blob):
        raise ParseError("%s: section table runs to offset %d but the file "
                         "ends at %d" % (path, table_end, len(blob)))
    end_of_payloads = table_end
    for i in range(section_count):
        sid, offset, size, crc = TABLE_ENTRY.unpack_from(
            blob, HEADER.size + i * TABLE_ENTRY.size)
        if offset + size > len(blob):
            raise ParseError("%s: section %d (table entry at offset %d) "
                             "declares bytes [%d, %d) past end of file (%d "
                             "bytes)" % (path, sid,
                                         HEADER.size + i * TABLE_ENTRY.size,
                                         offset, offset + size, len(blob)))
        end_of_payloads = max(end_of_payloads, offset + size)
        if sid == 7 and offset % 8:
            # The mmap path casts the blob's records in place.
            raise ParseError("%s: flat fabric at offset %d is not 8-byte "
                             "aligned" % (path, offset))
        payload = blob[offset:offset + size]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ParseError("%s: section %d CRC mismatch (payload at "
                             "offset %d)" % (path, sid, offset))
        if sid in sections and sid in (1, 7, 8):
            raise ParseError("%s: duplicate section %d (table entry at "
                             "offset %d)" % (path, sid,
                                             HEADER.size + i * TABLE_ENTRY.size))
        sections[sid] = payload
    if end_of_payloads != len(blob):
        raise ParseError("%s: %d trailing bytes at offset %d past the last "
                         "section" % (path, len(blob) - end_of_payloads,
                                      end_of_payloads))

    for sid in (1, 7):
        if sid not in sections:
            raise ParseError("%s: missing required section %d"
                             % (path, sid))

    meta = Cursor(sections[1], "meta")
    seed, threads, subject = meta.take("QiB")
    # The meta section is padded to 20 bytes so the flat blob that follows
    # sits 8-byte aligned in the file.
    pad = meta.take("7B")
    if any(pad):
        raise ParseError("%s: nonzero meta padding" % path)
    meta.done()

    segments, pins, confidence = read_flat_fabric(path, sections[7])
    return {"path": path, "seed": seed, "threads": threads,
            "subject": subject, "version": version, "segments": segments,
            "pins": pins, "confidence": confidence,
            "hazard": read_hazard(path, sections.get(8))}


def read_hazard(path, payload):
    """Decode the optional hazard-provenance section (id 8): the profile
    spec string plus name->value scorecard metrics. Absent section (the
    pre-hazard layout) decodes as an empty profile."""
    if payload is None:
        return {"profile": "", "metrics": {}}
    body = Cursor(payload, "hazard")

    def string(what):
        # Strings are u32 length + raw bytes (same codec as every other
        # string in the format).
        start = body.pos
        raw = body.take("%ds" % body.take("I"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ParseError("%s: hazard %s at section offset %d is not "
                             "UTF-8 (%s)" % (path, what, start, error))

    profile = string("profile")
    if not profile:
        # The writer omits the section for an empty profile.
        raise ParseError("%s: empty hazard profile at section offset 0"
                         % path)
    metrics = {}
    for _ in range(body.take("I")):
        name = string("metric name")
        metrics[name] = body.take("d")
    body.done()
    return {"profile": profile, "metrics": metrics}


def read_flat_fabric(path, blob):
    """Parse the flat-fabric blob into (segments, pins, confidence) dicts
    keyed by (abi, cbi) and address, bounds-checking the directory like
    snapv3::validate_flat_fabric does."""
    if len(blob) < 400:
        raise ParseError("%s: flat blob is %d bytes, shorter than its "
                         "directory" % (path, len(blob)))
    magic, blob_size = struct.unpack_from("<II", blob, 0)
    if magic != FLAT_MAGIC:
        raise ParseError("%s: bad flat-fabric magic at blob offset 0"
                         % path)
    if blob_size != len(blob):
        raise ParseError("%s: flat blob size field %d != payload size "
                         "%d" % (path, blob_size, len(blob)))

    def table(index):
        # Directory off/count pairs start at byte 8: segments, reports,
        # tallies, pins, regional, trie, by_peer, by_metro, alias, pool,
        # strings (src/io/snapshot_v3.h).
        return struct.unpack_from("<II", blob, 8 + index * 8)

    segments_off, segment_count = table(0)
    pins_off, pin_count = table(3)
    if segments_off + segment_count * V3_SEGMENT_SIZE > len(blob):
        raise ParseError("%s: %d segment records at blob offset %d run past "
                         "the blob end (%d bytes)"
                         % (path, segment_count, segments_off, len(blob)))
    if pins_off + pin_count * V3_PIN_SIZE > len(blob):
        raise ParseError("%s: %d pin records at blob offset %d run past the "
                         "blob end (%d bytes)"
                         % (path, pin_count, pins_off, len(blob)))

    segments = {}
    confidence = {}
    for i in range(segment_count):
        base = segments_off + i * V3_SEGMENT_SIZE
        (abi, cbi, _prior, _post, _round, confirmation, flags, group, _pad,
         _owner, peer_asn, _org, observations,
         rounds_mask) = V3_SEGMENT.unpack_from(blob, base)
        if confirmation >= len(CONFIRMATION_NAMES):
            raise ParseError("%s: confirmation %d out of range"
                             % (path, confirmation))
        density, score = struct.unpack_from("<dd", blob, base + 64)
        if not (0.0 <= density <= 1.0) or not (0.0 <= score <= 1.0):
            raise ParseError("%s: confidence fields out of range for "
                             "%s > %s" % (path, ip(abi), ip(cbi)))
        segments[(abi, cbi)] = (confirmation, flags, group, peer_asn)
        confidence[(abi, cbi)] = (observations, rounds_mask, density, score)

    pins = {}
    for i in range(pin_count):
        address, metro, _rule, _source, _pad, _round = V3_PIN.unpack_from(
            blob, pins_off + i * V3_PIN_SIZE)
        pins[address] = metro
    return segments, pins, confidence


def shard_owned_items(header):
    """Work items owned by this shard under round-robin assignment."""
    total, index, count = (header["total_items"], header["shard_index"],
                           header["shard_count"])
    return total // count + (1 if index < total % count else 0)


def read_shard_part(path):
    """Parse and fully validate one CMSHARD2 part file: header sanity, the
    header CRC, per-record payload CRC, round-robin item ownership, strictly
    increasing canonical order, and the finished record count."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < SHARD_HEADER.size:
        raise ParseError("%s: %d bytes, shorter than the %d-byte shard "
                         "header" % (path, len(blob), SHARD_HEADER.size))
    (magic, digest, round_, index, count, total_items, target_count,
     record_count, header_crc) = SHARD_HEADER.unpack_from(blob, 0)
    if magic != SHARD_MAGIC:
        raise ParseError("%s: bad magic at offset 0 (not a shard part file)"
                         % path)
    if zlib.crc32(blob[:SHARD_HEADER.size - 4]) & 0xFFFFFFFF != header_crc:
        raise ParseError("%s: header CRC mismatch (stored at offset %d)"
                         % (path, SHARD_HEADER.size - 4))
    if round_ not in (1, 2):
        raise ParseError("%s: round %d out of range (header offset 16)"
                         % (path, round_))
    if count < 1 or index >= count:
        raise ParseError("%s: shard index %d of %d out of range (header "
                         "offset 20)" % (path, index, count))
    header = {"path": path, "digest": digest, "round": round_,
              "shard_index": index, "shard_count": count,
              "total_items": total_items, "target_count": target_count,
              "record_count": record_count, "bytes": len(blob)}
    owned = shard_owned_items(header)
    if record_count != owned:
        raise ParseError(
            "%s: truncated or unfinished part: %d records, shard owns %d "
            "items" % (path, record_count, owned))

    pos = SHARD_HEADER.size
    previous_item = -1
    for record in range(record_count):
        if pos + 12 > len(blob):
            raise ParseError("%s: record %d header at offset %d past end of "
                             "file (%d bytes)" % (path, record, pos,
                                                  len(blob)))
        item, size = struct.unpack_from("<QI", blob, pos)
        pos += 12
        if pos + size + 4 > len(blob):
            raise ParseError("%s: record %d declares a %d-byte payload at "
                             "offset %d but the file ends at %d"
                             % (path, record, size, pos, len(blob)))
        payload = blob[pos:pos + size]
        (crc,) = struct.unpack_from("<I", blob, pos + size)
        pos += size + 4
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ParseError("%s: record %d (item %d) CRC mismatch (payload "
                             "at offset %d)" % (path, record, item,
                                                pos - size - 4))
        if item % count != index:
            raise ParseError("%s: record %d carries item %d, owned by "
                             "shard %d" % (path, record, item,
                                           item % count))
        if item <= previous_item:
            raise ParseError("%s: record %d out of canonical order "
                             "(item %d after %d)"
                             % (path, record, item, previous_item))
        if item >= total_items:
            raise ParseError("%s: record %d item %d >= total items %d"
                             % (path, record, item, total_items))
        previous_item = item
    if pos != len(blob):
        raise ParseError("%s: %d trailing bytes at offset %d after the last "
                         "record" % (path, len(blob) - pos, pos))
    return header


def shard_summary(parts, expect_complete):
    """Audit a (possibly partial) set of one round's already-parsed shard
    parts: check cross-part consistency and print coverage."""
    reference = parts[0]
    seen = {}
    for part in parts:
        for field in ("digest", "round", "shard_count", "total_items",
                      "target_count"):
            if part[field] != reference[field]:
                raise SnapshotError(
                    "%s: %s %s disagrees with %s's %s (mixed campaigns or "
                    "rounds?)" % (part["path"], field, part[field],
                                  reference["path"], reference[field]))
        if part["shard_index"] in seen:
            raise SnapshotError("duplicate shard index %d: %s and %s"
                                % (part["shard_index"],
                                   seen[part["shard_index"]], part["path"]))
        seen[part["shard_index"]] = part["path"]
        print("%s: round %d, shard %d/%d, %d records, %d bytes"
              % (part["path"], part["round"], part["shard_index"],
                 part["shard_count"], part["record_count"], part["bytes"]))

    count = reference["shard_count"]
    missing = sorted(set(range(count)) - set(seen))
    records = sum(part["record_count"] for part in parts)
    print("coverage: %d of %d shards present, %d of %d work items "
          "(digest %016x, round %d)"
          % (len(parts), count, records, reference["total_items"],
             reference["digest"], reference["round"]))
    if missing:
        print("missing shards: %s" % ", ".join(str(i) for i in missing))
        if expect_complete:
            raise SnapshotError(
                "incomplete part set: %d of %d shards missing"
                % (len(missing), count))
    else:
        print("part set is complete and merge-ready")


def ip(value):
    return "%d.%d.%d.%d" % (value >> 24 & 255, value >> 16 & 255,
                            value >> 8 & 255, value & 255)


def pair_diff(a, b):
    """The segment/pin churn between two parsed snapshots."""
    added = sorted(set(b["segments"]) - set(a["segments"]))
    removed = sorted(set(a["segments"]) - set(b["segments"]))
    common = sorted(set(a["segments"]) & set(b["segments"]))
    reconfirmed = [key for key in common
                   if a["segments"][key][0] != b["segments"][key][0]]
    repinned = sorted(address for address in
                      set(a["pins"]) & set(b["pins"])
                      if a["pins"][address] != b["pins"][address])
    rescored = []
    if a["confidence"] and b["confidence"]:
        rescored = [key for key in common
                    if a["confidence"].get(key) != b["confidence"].get(key)]
    changed = bool(added or removed or reconfirmed or repinned or rescored
                   or a["pins"] != b["pins"])
    return {"added": added, "removed": removed, "common": common,
            "reconfirmed": reconfirmed, "repinned": repinned,
            "rescored": rescored, "changed": changed}


def mean_confidence(side):
    if not side["confidence"]:
        return None
    scores = [entry[3] for entry in side["confidence"].values()]
    return sum(scores) / len(scores) if scores else 0.0


def print_header(side):
    line = ("%s: v%d, seed %d, %d threads, %d segments, %d pins"
            % (side["path"], side["version"], side["seed"], side["threads"],
               len(side["segments"]), len(side["pins"])))
    if side["hazard"]["profile"]:
        line += ", hazards %s" % side["hazard"]["profile"]
    print(line)


def print_pair(a, b, diff):
    print("segments: +%d -%d, %d common, %d re-confirmed"
          % (len(diff["added"]), len(diff["removed"]), len(diff["common"]),
             len(diff["reconfirmed"])))
    print("pins: %d re-pinned" % len(diff["repinned"]))

    # Confidence drift: only meaningful when both sides carry segments.
    if a["confidence"] and b["confidence"]:
        print("confidence: %d of %d common segments re-scored"
              % (len(diff["rescored"]), len(diff["common"])))
        for key in diff["rescored"][:10]:
            print("  ~ %s > %s: %.3f -> %.3f"
                  % (ip(key[0]), ip(key[1]),
                     a["confidence"][key][3], b["confidence"][key][3]))
    for abi, cbi in diff["added"][:10]:
        print("  + %s > %s" % (ip(abi), ip(cbi)))
    for abi, cbi in diff["removed"][:10]:
        print("  - %s > %s" % (ip(abi), ip(cbi)))
    for key in diff["reconfirmed"][:10]:
        print("  ~ %s > %s: %s -> %s"
              % (ip(key[0]), ip(key[1]),
                 CONFIRMATION_NAMES[a["segments"][key][0]],
                 CONFIRMATION_NAMES[b["segments"][key][0]]))


def print_longitudinal(sides, diffs):
    """One turnover row per consecutive pair, plus mean confidence drift —
    the summary the churn scorecard's snapshot sequences are read with."""
    print("longitudinal turnover over %d snapshots:" % len(sides))
    print("  %-24s %6s %6s %8s %8s %10s" %
          ("transition", "+segs", "-segs", "reconf", "repin", "conf-drift"))
    for i, diff in enumerate(diffs):
        before, after = mean_confidence(sides[i]), mean_confidence(sides[i + 1])
        drift = ("%+.4f" % (after - before)
                 if before is not None and after is not None else "n/a")
        print("  t%-3d -> t%-17d %6d %6d %8d %8d %10s"
              % (i, i + 1, len(diff["added"]), len(diff["removed"]),
                 len(diff["reconfirmed"]), len(diff["repinned"]), drift))
    total_added = sum(len(d["added"]) for d in diffs)
    total_removed = sum(len(d["removed"]) for d in diffs)
    print("total turnover: +%d -%d across %d transitions"
          % (total_added, total_removed, len(diffs)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshots", nargs="+", metavar="SNAP",
                        help="two or more snapshot files, oldest first")
    parser.add_argument(
        "--expect-identical", action="store_true",
        help="exit 1 if any consecutive pair differs at the segment/pin level")
    parser.add_argument(
        "--shard-parts", action="store_true",
        help="treat the arguments as campaign shard part files (any subset "
             "of one round's parts) and audit them instead of diffing")
    parser.add_argument(
        "--expect-complete", action="store_true",
        help="with --shard-parts: exit 1 unless every shard of the round "
             "is present")
    args = parser.parse_args()
    if args.shard_parts:
        try:
            parts = [read_shard_part(path) for path in args.snapshots]
        except (ParseError, OSError) as error:
            print("FAIL: %s" % error, file=sys.stderr)
            sys.exit(2)
        try:
            shard_summary(parts, args.expect_complete)
        except SnapshotError as error:
            print("FAIL: %s" % error, file=sys.stderr)
            sys.exit(1)
        return
    if len(args.snapshots) < 2:
        parser.error("need at least two snapshots to diff")

    try:
        sides = [read_snapshot(path) for path in args.snapshots]
    except (ParseError, OSError) as error:
        print("FAIL: %s" % error, file=sys.stderr)
        sys.exit(2)

    for side in sides:
        print_header(side)

    diffs = [pair_diff(sides[i], sides[i + 1])
             for i in range(len(sides) - 1)]
    if len(sides) == 2:
        print_pair(sides[0], sides[1], diffs[0])
    else:
        print_longitudinal(sides, diffs)

    if not any(diff["changed"] for diff in diffs):
        print("snapshots are identical at the segment/pin level")
    elif args.expect_identical:
        print("FAIL: snapshots were expected to be identical", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
