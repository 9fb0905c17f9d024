"""Unit tests for CommandType / DataType."""

import pytest

from repro.core import CommandType, DataType, READ
from repro.errors import ProtocolError
from repro.pci import CMD_MEM_READ, CMD_MEM_WRITE


class TestCommandType:
    def test_read_factory(self):
        cmd = CommandType.read(0x40, count=3)
        assert cmd.is_read and not cmd.is_write
        assert cmd.count == 3 and cmd.data == []

    def test_write_factory(self):
        cmd = CommandType.write(0x40, [1, 2])
        assert cmd.is_write
        assert cmd.count == 2

    def test_write_scalar(self):
        assert CommandType.write(0x0, 5).data == [5]

    def test_validation(self):
        with pytest.raises(ProtocolError):
            CommandType("erase", 0x0)
        with pytest.raises(ProtocolError):
            CommandType.read(0x2)
        with pytest.raises(ProtocolError):
            CommandType.write(0x0, [])
        with pytest.raises(ProtocolError):
            CommandType.read(0x0, count=0)
        with pytest.raises(ProtocolError):
            CommandType(READ, 0x0, data=[1])
        with pytest.raises(ProtocolError):
            CommandType.write(0x0, [1 << 32])
        with pytest.raises(ProtocolError):
            CommandType.read(0x0, byte_enables=0x100)

    def test_to_pci_operation_read(self):
        op = CommandType.read(0x80, count=2, byte_enables=0x3).to_pci_operation()
        assert op.command == CMD_MEM_READ
        assert op.count == 2
        assert op.byte_enables == 0x3

    def test_to_pci_operation_write(self):
        op = CommandType.write(0x80, [9]).to_pci_operation()
        assert op.command == CMD_MEM_WRITE
        assert op.data == [9]

    def test_equality_and_hash(self):
        a = CommandType.write(0x10, [1])
        b = CommandType.write(0x10, [1])
        c = CommandType.write(0x10, [2])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_signature_kinds_distinct(self):
        read = CommandType.read(0x10)
        write = CommandType.write(0x10, [0])
        assert read.signature() != write.signature()


class TestDataType:
    def test_ok_status(self):
        response = DataType([1, 2])
        assert response.ok
        assert response.data == [1, 2]

    def test_error_status(self):
        response = DataType([], status="master_abort")
        assert not response.ok

    def test_equality(self):
        assert DataType([1]) == DataType([1])
        assert DataType([1]) != DataType([1], status="bad")
