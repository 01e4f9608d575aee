"""Byte-level pins on the command-line output.

Each request's standard output is hashed with SHA-256 and compared with a
digest recorded from a known-good build.  The set covers every table in
JSON and CSV, both ``--half-format``s of ``onehole``, framings below, at
and above zero, and the ``gwdt-check`` report; it runs in about two
seconds.  A refactor of the emission code must leave every digest intact.
"""

import hashlib

import pytest

from lmov.cli import EXIT_OK, main

GOLDEN = [
    ("disc --tau -2 --max-m 8", "cd431f74952f18b9264017c2e7f1348e728938259dfa4b38b37353d57c3ca648"),
    ("disc --tau 0 --max-m 6 --format csv", "e246b98c3e64d4185911f3304f85e88836bed7e820c38452e7719abf1715070d"),
    ("disc --tau 3 --max-m 6", "e2eaf489923d701e94df0eadd4a7fb31427dbbc0c987037755b9587dfdf84fd0"),
    ("disc --tau 3 --max-m 6 --format csv", "ca0dcb47674919a8b00dd7ed1cb511a559e9d0167340741ec1bd7ee433f5a3fc"),
    ("annulus --tau -1 --max-total 6", "815e600384c17169b2abd7b57472dd3c36e6a041c6e94841ebcca4c75d467ae6"),
    ("annulus --tau 2 --max-total 6 --format csv", "d8272c3161fe7a9704b274afb090399365a18e1c83b81ca7431a170d459e7e1e"),
    ("annulus --tau 0 --max-total 5", "3348cff37bfb5aff9e212d5b178f8a7510d9b16d4fe586ca30b4f5153f757d4e"),
    ("annulus --tau -3 --max-total 10", "785a37957ff1fbe76dbe48bc0ac244ebd09b7aaa5fec4f42f70e8877f050acf4"),
    ("annulus --tau 4 --max-total 9 --format csv", "d2739e30eb0c68b298ed15ae81ea4bb5993dac8ab6ef114d127b86c7701e7563"),
    ("multihole --tau -2 --max-size 7", "73a667f462174e81c1eb3f7a9ef8910b27849e702a68ccc255335b8319ffca18"),
    ("multihole --tau 1 --max-size 6 --format csv", "9109fdab2e799526861fe27c160ea7ace119c0b2d75e56250abb54900178b54e"),
    ("multihole --tau 0 --max-size 5", "8bf40156b31d9a21f00419d7c573b51672065a8c27ba4ff146deeb4bf27dc72d"),
    ("onehole --tau -2 --max-m 5", "3bb73bed81c0bb1b13e60e56643d6be4c8b0ab312bdc141f6f5c524e81a397dd"),
    ("onehole --tau 0 --max-m 4 --format csv", "c2bb7e79fb2c70176947c62aa7981ef4b74871500fc4e2fda424dbfccea2a321"),
    ("onehole --tau 2 --max-m 5 --format csv", "dd9a47b88be5f47e295a1607ba5431978c5d05486c1cb78c6d87c37c3f591aa4"),
    ("onehole --tau 1 --max-m 4 --half-format fraction", "f4a2164920028a3ab23ea393a8bbf3d062ba52f5640733c215479fdc9ebcb570"),
    ("onehole --tau -1 --max-m 4 --half-format fraction --format csv", "d1bb4cf1a5d96765ba7104794c2222055a66b621fb877147fbf3a20902570bcc"),
    ("onehole --tau 3 --max-m 8", "2fbe76154faa3932d6d8605cd9d590f389675336d69ddeb59bc045473ea9fbe9"),
    ("onehole --tau -3 --max-m 8 --format csv", "cc0e7256b155cc12f0bcb22288ba142ce4f4a6859f95d0b27eba07e157541e9e"),
    ("ov --tau -2 --max-m 6", "f78a83fd231d70b63d47b94d6995a70526ce8885d75ad589a90f74c3ad3dd030"),
    ("ov --tau 0 --max-m 5 --format csv", "85ccd99a12df87fc2b5a00b801df4c50aa505cf1a61f96958dcfbabdd0519574"),
    ("ov --tau 2 --max-m 5", "d133dffa85a6cadeb542b63db8f29c51e46b7a9f30843a486a94973cd631d6ca"),
    ("ov --tau 1 --max-m 5 --format csv", "4e2b57e6da63aff37d2b500f04c93690c75298f0186e52477d2495c21a16709a"),
    ("dt --loops 1 --max-n 5", "29bd563a759c3e8700a20a9b0b0ed906bc3d005be32338b77c3d1c099a2ff575"),
    ("dt --loops 3 --max-n 5 --format csv", "595a7fd432e55e17541a55e940ec556b5a8f8da19823c5a3e0b7ce4e3500c351"),
    ("dt --loops 2 --max-n 6", "6d723d149880d27e389651367a829e96d5f43d557ddd396e53971e4937b74ec3"),
    ("twist --p-min -4 --p-max 4 --max-r 10", "a00200214e995c7ca56da246cde2ae6350a195f1b9c7a801174c8e2087b4e373"),
    ("twist --p-min -3 --p-max 3 --max-r 8 --format csv", "7aefb633502b8124525714837b108c8bbcae80e38feebbbb2bb4212dcb322c86"),
    ("gwdt-check --tau -1 --order 8", "2a4597bc82cb81c4599a2c74d6933b73e7676a4ed242bd0425256175c01caa90"),
    ("gwdt-check --tau -3 --order 6", "61a8b44f7677bc2c2acc8eb9bafcc51f830bf09ee46641e9475c1729a5ab5316"),
]


@pytest.mark.parametrize("request_line, digest", GOLDEN, ids=[r for r, _ in GOLDEN])
def test_output_digest(request_line, digest, capsys):
    assert main(request_line.split()) == EXIT_OK
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
