"""TLS ClientHello handling: enough to read and fabricate an SNI.

The engine never decrypts TLS; it only inspects the plaintext hello on
its way out to learn the server name, so this covers exactly that.
"""

from __future__ import annotations

import struct

_HANDSHAKE = 0x16
_CLIENT_HELLO = 0x01
_EXT_SERVER_NAME = 0x0000


def extract_sni(payload: bytes) -> str | None:
    """Server name from a TLS ClientHello, or None if this is not one,
    the hello is truncated past the extension, or the name is not ASCII
    (RFC 6066 section 3: HostName is ASCII)."""
    try:
        if len(payload) < 5 or payload[0] != _HANDSHAKE or payload[1] != 0x03:
            return None
        hello = payload[5:5 + struct.unpack("!H", payload[3:5])[0]]
        if len(hello) < 38 or hello[0] != _CLIENT_HELLO:
            return None
        i = 4 + 2 + 32  # handshake header, client version, random
        sid_len = hello[i]
        i += 1 + sid_len
        cs_len = struct.unpack("!H", hello[i:i + 2])[0]
        i += 2 + cs_len
        comp_len = hello[i]
        i += 1 + comp_len
        ext_total = struct.unpack("!H", hello[i:i + 2])[0]
        i += 2
        end = min(i + ext_total, len(hello))
        while i + 4 <= end:
            etype, elen = struct.unpack("!HH", hello[i:i + 4])
            i += 4
            if etype == _EXT_SERVER_NAME:
                # server_name_list: 2B list length, 1B type, 2B name length
                if hello[i + 2] != 0:
                    return None
                name_len = struct.unpack("!H", hello[i + 3:i + 5])[0]
                name = hello[i + 5:i + 5 + name_len]
                return name.decode("ascii") if len(name) == name_len else None
            i += elen
        return None
    except (IndexError, struct.error, UnicodeDecodeError):
        return None


def build_client_hello(server_name: str) -> bytes:
    """Minimal syntactically valid ClientHello carrying an SNI, for
    traces and tests."""
    name = server_name.encode("ascii")
    sni_entry = struct.pack("!HBH", len(name) + 3, 0, len(name)) + name
    ext = struct.pack("!HH", _EXT_SERVER_NAME, len(sni_entry)) + sni_entry
    body = (
        b"\x03\x03" + bytes(32)      # client version + random
        + b"\x00"                    # empty session id
        + struct.pack("!H", 2) + b"\x13\x01"  # one cipher suite
        + b"\x01\x00"                # null compression
        + struct.pack("!H", len(ext)) + ext
    )
    handshake = struct.pack("!BBH", _CLIENT_HELLO, 0, len(body)) + body
    return struct.pack("!BHH", _HANDSHAKE, 0x0301, len(handshake)) + handshake
