"""Unit tests for protocol headers: pack/unpack fidelity and semantics."""

import pytest

from capture_oracle import clone_header
from repro.net.addressing import (
    int_to_ip,
    int_to_mac,
    ip_to_int,
    mac_to_int,
    parse_cidr,
    ROCEV2_UDP_PORT,
)
from repro.net.headers import (
    AckExtendedHeader,
    AethSyndrome,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
    ETH_HEADER_LEN,
    IPV4_HEADER_LEN,
    UDP_HEADER_LEN,
    BTH_LEN,
    RETH_LEN,
    AETH_LEN,
    ECN_CE,
    ECN_ECT0,
)


class TestAddressing:
    def test_mac_roundtrip(self):
        assert int_to_mac(mac_to_int("0a:1b:2c:3d:4e:5f")) == "0a:1b:2c:3d:4e:5f"

    def test_mac_invalid(self):
        with pytest.raises(ValueError):
            mac_to_int("not-a-mac")
        with pytest.raises(ValueError):
            mac_to_int("00:00:00:00:00")
        with pytest.raises(ValueError):
            int_to_mac(1 << 48)

    def test_ip_roundtrip(self):
        assert int_to_ip(ip_to_int("10.0.0.2")) == "10.0.0.2"
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF

    def test_ip_invalid(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            ip_to_int("10.0.0.256")
        with pytest.raises(ValueError):
            int_to_ip(-1)

    def test_parse_cidr(self):
        ip, prefix = parse_cidr("10.0.0.2/24")
        assert ip == ip_to_int("10.0.0.2")
        assert prefix == 24

    def test_parse_cidr_bare_address_is_host_route(self):
        assert parse_cidr("192.168.1.1") == (ip_to_int("192.168.1.1"), 32)

    def test_parse_cidr_invalid_prefix(self):
        with pytest.raises(ValueError):
            parse_cidr("10.0.0.1/33")

    def test_rocev2_port(self):
        assert ROCEV2_UDP_PORT == 4791


class TestEthernetHeader:
    def test_pack_length(self):
        assert len(EthernetHeader().pack()) == ETH_HEADER_LEN

    def test_roundtrip(self):
        header = EthernetHeader(dst_mac=0x0A1B2C3D4E5F, src_mac=0x020000000001,
                                ethertype=0x0800)
        assert EthernetHeader.unpack(header.pack()) == header

    def test_unpack_truncated(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 10)

    def test_copy_is_independent(self):
        # The capture oracle's clone helper, for every header class: an
        # equal copy whose fields do not alias the original's.
        headers = [
            EthernetHeader(dst_mac=1, src_mac=2),
            Ipv4Header(src_ip=3, dst_ip=4, total_length=60, ttl=7, dscp=5,
                       ecn=ECN_CE, identification=9),
            UdpHeader(src_port=0xC001, length=40),
            BaseTransportHeader(Opcode.RDMA_WRITE_FIRST, solicited=True,
                                migreq=False, pad_count=2, pkey=0x1234,
                                dest_qp=0xABC, ack_request=True, psn=77,
                                becn=True),
            RdmaExtendedHeader(virtual_address=1 << 40, rkey=5, dma_length=6),
            AckExtendedHeader(syndrome=0x60, msn=8),
        ]
        for header in headers:
            clone = clone_header(header)
            assert clone == header and clone is not header
            first = type(header).__slots__[0]
            setattr(clone, first, 99)
            assert getattr(header, first) != 99


class TestIpv4Header:
    def test_pack_length(self):
        assert len(Ipv4Header().pack()) == IPV4_HEADER_LEN

    def test_roundtrip_all_fields(self):
        header = Ipv4Header(src_ip=ip_to_int("10.0.0.1"),
                            dst_ip=ip_to_int("10.0.0.2"),
                            total_length=1024, ttl=7, dscp=46, ecn=ECN_CE,
                            identification=0x1234)
        assert Ipv4Header.unpack(header.pack()) == header

    def test_default_ecn_is_ect0(self):
        assert Ipv4Header().ecn == ECN_ECT0

    def test_unpack_rejects_non_ipv4(self):
        data = bytearray(Ipv4Header().pack())
        data[0] = 0x65  # version 6
        with pytest.raises(ValueError):
            Ipv4Header.unpack(bytes(data))

    def test_unpack_truncated(self):
        with pytest.raises(ValueError):
            Ipv4Header.unpack(b"\x45" * 10)


class TestUdpHeader:
    def test_pack_length(self):
        assert len(UdpHeader().pack()) == UDP_HEADER_LEN

    def test_roundtrip(self):
        header = UdpHeader(src_port=55555, dst_port=4791, length=1052)
        assert UdpHeader.unpack(header.pack()) == header

    def test_default_port_is_rocev2(self):
        assert UdpHeader().dst_port == 4791


class TestBth:
    def test_pack_length(self):
        assert len(BaseTransportHeader().pack()) == BTH_LEN

    def test_roundtrip_all_fields(self):
        header = BaseTransportHeader(
            opcode=Opcode.RDMA_WRITE_MIDDLE, solicited=True, migreq=False,
            pad_count=3, pkey=0xABCD, dest_qp=0xABCDEF, ack_request=True,
            psn=0x123456, becn=True,
        )
        assert BaseTransportHeader.unpack(header.pack()) == header

    def test_migreq_default_is_one(self):
        # IB spec: MigReq starts at 1 — the E810 bug is sending 0 (§6.2.3).
        assert BaseTransportHeader().migreq is True

    def test_migreq_bit_position(self):
        # MigReq is bit 6 of BTH byte 1.
        with_mig = BaseTransportHeader(migreq=True).pack()
        without = BaseTransportHeader(migreq=False).pack()
        assert with_mig[1] & 0x40
        assert not without[1] & 0x40

    def test_psn_masked_to_24_bits(self):
        header = BaseTransportHeader(psn=0x1FFFFFF)
        assert BaseTransportHeader.unpack(header.pack()).psn == 0xFFFFFF

    def test_unpack_truncated(self):
        with pytest.raises(ValueError):
            BaseTransportHeader.unpack(b"\x00" * 4)


class TestOpcodeProperties:
    def test_data_opcodes(self):
        assert Opcode.SEND_ONLY.is_data
        assert Opcode.RDMA_WRITE_MIDDLE.is_data
        assert Opcode.RDMA_READ_RESPONSE_LAST.is_data
        assert not Opcode.ACKNOWLEDGE.is_data
        assert not Opcode.RDMA_READ_REQUEST.is_data
        assert not Opcode.CNP.is_data

    def test_last_flags(self):
        assert Opcode.SEND_LAST.is_last
        assert Opcode.RDMA_WRITE_ONLY.is_last
        assert Opcode.RDMA_READ_RESPONSE_ONLY.is_last
        assert not Opcode.SEND_MIDDLE.is_last

    def test_first_flags(self):
        assert Opcode.SEND_FIRST.is_first
        assert not Opcode.SEND_ONLY.is_first

    def test_family_flags(self):
        assert Opcode.SEND_MIDDLE.is_send
        assert Opcode.RDMA_WRITE_FIRST.is_write
        assert Opcode.RDMA_READ_RESPONSE_MIDDLE.is_read_response
        assert not Opcode.SEND_MIDDLE.is_write


class TestReth:
    def test_pack_length(self):
        assert len(RdmaExtendedHeader().pack()) == RETH_LEN

    def test_roundtrip(self):
        header = RdmaExtendedHeader(virtual_address=0x10_0000_0000,
                                    rkey=0xCAFE, dma_length=1 << 20)
        assert RdmaExtendedHeader.unpack(header.pack()) == header


class TestAeth:
    def test_pack_length(self):
        assert len(AckExtendedHeader().pack()) == AETH_LEN

    def test_ack_constructor(self):
        aeth = AckExtendedHeader.ack(msn=77)
        assert aeth.is_ack and not aeth.is_nak
        assert aeth.msn == 77

    def test_nak_constructor(self):
        aeth = AckExtendedHeader.nak_sequence_error(msn=3)
        assert aeth.is_nak and not aeth.is_ack
        kind, code = AethSyndrome.decode(aeth.syndrome)
        assert kind == AethSyndrome.NAK
        assert code == 0  # PSN sequence error

    def test_roundtrip(self):
        aeth = AckExtendedHeader.nak_sequence_error(msn=0x123456)
        assert AckExtendedHeader.unpack(aeth.pack()) == aeth

    def test_syndrome_encode_rejects_wide_code(self):
        with pytest.raises(ValueError):
            AethSyndrome.encode(AethSyndrome.ACK, 0x20)
