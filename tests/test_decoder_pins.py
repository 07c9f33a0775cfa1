"""Decoder outputs pinned bit for bit, per instance and fault placement.

Each entry is either the name of the error a decode raises, or the
outcome followed by the first 16 hex digits of the SHA-256 of each
decoded file and of ``recovered_atoms`` (values and flags).  The
outcome names what the variant's contract promises:

- ``exact``: the decoded files equal the database;
- ``DecodingFailure``: the faults exceed what the redundancy corrects,
  and the decoder says so;
- ``undetectable``: a wrong file comes back, because the scheme has no
  redundancy left to notice the lie (robust with its one spare position
  spent on an absent server; prototype, multifile and pattern carry
  none).  These are expected, not bugs.

Regenerate the table with ``PYTHONPATH=src python tests/test_decoder_pins.py``
only when a change is meant to alter decoder output.
"""

from hashlib import sha256
from itertools import combinations

import numpy as np
import pytest

import coded_pir as cp
from conftest import FACTORIES

DB_SEED = 17
LIAR_SEED = 1


def placements(name, n_servers):
    """(label, adversary) for the fault matrix of one instance."""
    yield "none", None
    servers = range(n_servers)
    if name == "byzantine":
        for liars in list(combinations(servers, 1)) + list(combinations(servers, 2)):
            yield f"liars={liars}", cp.Adversary(byzantine_set=liars, seed=LIAR_SEED)
    elif name == "robust":
        for absent in list(combinations(servers, 1)) + list(combinations(servers, 2)):
            yield f"absent={absent}", cp.Adversary(robust_set=absent)
        for liar in servers:
            yield f"liars={(liar,)}", cp.Adversary(byzantine_set=(liar,), seed=LIAR_SEED)
            for absent in servers:
                if absent != liar:
                    yield (f"absent={(absent,)} liars={(liar,)}",
                           cp.Adversary(robust_set=(absent,), byzantine_set=(liar,),
                                        seed=LIAR_SEED))
    else:
        for liar in servers:
            yield f"liars={(liar,)}", cp.Adversary(byzantine_set=(liar,), seed=LIAR_SEED)


def _digest(chunks):
    h = sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()[:16]


def _array_bytes(a):
    return np.ascontiguousarray(a, dtype="<i8").tobytes()


def observe(plan, db, adversary):
    """The pinned outcome of decoding one session."""
    transcript = cp.run_session(plan, db, adversary=adversary)
    try:
        files = cp.reconstruct(plan, transcript)
    except cp.DecodeError as exc:
        return type(exc).__name__
    record = cp.recovered_atoms(plan, transcript)
    exact = all(np.array_equal(files[f], db.files[f]) for f in files)
    atoms = []
    for f in sorted(record.values):
        for a in sorted(record.values[f]):
            atoms += [f"{f}:{a}:{record.flags[f][a]}:", _array_bytes(record.values[f][a])]
    outcome = "exact" if exact else "undetectable"
    file_digests = [_digest([_array_bytes(files[f])]) for f in sorted(files)]
    return " ".join([outcome, *file_digests, _digest(atoms)])


def observe_instance(name):
    plan = cp.build_plan(FACTORIES[name]())
    db = cp.database_for_plan(plan, seed=DB_SEED)
    return {label: observe(plan, db, adv)
            for label, adv in placements(name, plan.params.n_servers)}


PINS = {'byzantine': {'none': 'exact fdeae846cf1d43a4 a5b57b218a1d4ff2',
                      'liars=(0,)': 'exact fdeae846cf1d43a4 1450f886f08a71de',
                      'liars=(1,)': 'exact fdeae846cf1d43a4 e97fee26d1393947',
                      'liars=(2,)': 'exact fdeae846cf1d43a4 e76b76871fb83e60',
                      'liars=(3,)': 'exact fdeae846cf1d43a4 10c6f5c2acfcb8ce',
                      'liars=(4,)': 'exact fdeae846cf1d43a4 79f59f0e82ab28e4',
                      'liars=(5,)': 'exact fdeae846cf1d43a4 3b7a7222ad23f34d',
                      'liars=(6,)': 'exact fdeae846cf1d43a4 de29ae5523ecac7c',
                      'liars=(7,)': 'exact fdeae846cf1d43a4 f7fffe76c1890bb2',
                      'liars=(0, 1)': 'DecodingFailure',
                      'liars=(0, 2)': 'DecodingFailure',
                      'liars=(0, 3)': 'DecodingFailure',
                      'liars=(0, 4)': 'DecodingFailure',
                      'liars=(0, 5)': 'DecodingFailure',
                      'liars=(0, 6)': 'DecodingFailure',
                      'liars=(0, 7)': 'DecodingFailure',
                      'liars=(1, 2)': 'DecodingFailure',
                      'liars=(1, 3)': 'DecodingFailure',
                      'liars=(1, 4)': 'DecodingFailure',
                      'liars=(1, 5)': 'DecodingFailure',
                      'liars=(1, 6)': 'DecodingFailure',
                      'liars=(1, 7)': 'DecodingFailure',
                      'liars=(2, 3)': 'DecodingFailure',
                      'liars=(2, 4)': 'DecodingFailure',
                      'liars=(2, 5)': 'DecodingFailure',
                      'liars=(2, 6)': 'DecodingFailure',
                      'liars=(2, 7)': 'DecodingFailure',
                      'liars=(3, 4)': 'DecodingFailure',
                      'liars=(3, 5)': 'DecodingFailure',
                      'liars=(3, 6)': 'DecodingFailure',
                      'liars=(3, 7)': 'DecodingFailure',
                      'liars=(4, 5)': 'DecodingFailure',
                      'liars=(4, 6)': 'DecodingFailure',
                      'liars=(4, 7)': 'DecodingFailure',
                      'liars=(5, 6)': 'DecodingFailure',
                      'liars=(5, 7)': 'DecodingFailure',
                      'liars=(6, 7)': 'DecodingFailure'},
        'multifile': {'none': 'exact 5c7e92c2acf09cc5 5e4ab466e618ad6c 17f74cdce6c7e555',
                      'liars=(0,)': 'undetectable 9b5d57105c2b162a 4eaa91cf818701fc b4babd0ad6a582c4',
                      'liars=(1,)': 'undetectable caa01df9b2938723 76be22f6f53f5ed9 2ae7d0c1c8f55f8c',
                      'liars=(2,)': 'undetectable 55ff040a1bdc0f04 67696aa1d235a390 d2b6269283577fc4',
                      'liars=(3,)': 'undetectable c370408f64cf7a62 8617670a5be8108b 1db1fbf5b8269bd9'},
        'pattern': {'none': 'exact d53e90a7077d1f7a 286b662988675d2f',
                    'liars=(0,)': 'undetectable 86c3eb8391d0e4ef 8aa6fa2eebb4ccb1',
                    'liars=(1,)': 'undetectable cf189af3f41901e7 a032296b3720917a',
                    'liars=(2,)': 'undetectable c94e9f206a7ac468 ce1325e5d4b9233f',
                    'liars=(3,)': 'undetectable 357193e156f8664d ff1690f433bb4581',
                    'liars=(4,)': 'undetectable 50f43a3363fa27e1 8efceb92f7ca1c54'},
        'prototype': {'none': 'exact 5b3a73e16f23ef1f 4916a8a86a89b3f7',
                      'liars=(0,)': 'undetectable 8625c19424b985fe 087508f5068a0460',
                      'liars=(1,)': 'undetectable 3e654ca9ba58b5ef 694ae6edf2220a5f',
                      'liars=(2,)': 'undetectable b437a73a726bf577 7364a5466e4740bf',
                      'liars=(3,)': 'undetectable b5a0ec00987aabdb f5dec25f59b6b879'},
        'robust': {'none': 'exact 00a5e496eea3faf2 d9bf68d7315c81e7',
                   'absent=(0,)': 'exact 00a5e496eea3faf2 8d334dc5b997e32d',
                   'absent=(1,)': 'exact 00a5e496eea3faf2 1456f5c253c34da9',
                   'absent=(2,)': 'exact 00a5e496eea3faf2 107a0ecefdd56ab6',
                   'absent=(3,)': 'exact 00a5e496eea3faf2 dbc68ce1fa5f9069',
                   'absent=(4,)': 'exact 00a5e496eea3faf2 e3d146e536b74970',
                   'absent=(5,)': 'exact 00a5e496eea3faf2 9acbab97975d2350',
                   'absent=(0, 1)': 'DecodingFailure',
                   'absent=(0, 2)': 'DecodingFailure',
                   'absent=(0, 3)': 'DecodingFailure',
                   'absent=(0, 4)': 'DecodingFailure',
                   'absent=(0, 5)': 'DecodingFailure',
                   'absent=(1, 2)': 'DecodingFailure',
                   'absent=(1, 3)': 'DecodingFailure',
                   'absent=(1, 4)': 'DecodingFailure',
                   'absent=(1, 5)': 'DecodingFailure',
                   'absent=(2, 3)': 'DecodingFailure',
                   'absent=(2, 4)': 'DecodingFailure',
                   'absent=(2, 5)': 'DecodingFailure',
                   'absent=(3, 4)': 'DecodingFailure',
                   'absent=(3, 5)': 'DecodingFailure',
                   'absent=(4, 5)': 'DecodingFailure',
                   'liars=(0,)': 'DecodingFailure',
                   'absent=(1,) liars=(0,)': 'undetectable 36979f0f615073b2 0952efed3d92c6c2',
                   'absent=(2,) liars=(0,)': 'undetectable 17c8dc4ed6601c70 680b72a531fe2a51',
                   'absent=(3,) liars=(0,)': 'undetectable 875d4cf40312bd58 031caec541488c7d',
                   'absent=(4,) liars=(0,)': 'undetectable c3d0bc0cc1adb9b8 90f12161d9f99d28',
                   'absent=(5,) liars=(0,)': 'undetectable f4002055188f20af 7fc4a28688ef1e2f',
                   'liars=(1,)': 'DecodingFailure',
                   'absent=(0,) liars=(1,)': 'undetectable e4df825981e1faf4 f0b507e7d73eac41',
                   'absent=(2,) liars=(1,)': 'undetectable f1e324f4bdd836a8 de400f7c2267c583',
                   'absent=(3,) liars=(1,)': 'undetectable fc16e874e522d852 6f1a213913e273fa',
                   'absent=(4,) liars=(1,)': 'undetectable 531594e2d785c721 fd4e3234d23e49a0',
                   'absent=(5,) liars=(1,)': 'undetectable 94d8a2b0d57eae81 da0f307cb3a86aec',
                   'liars=(2,)': 'DecodingFailure',
                   'absent=(0,) liars=(2,)': 'undetectable d4e10da84e3cd417 cd4ecc76f871dae6',
                   'absent=(1,) liars=(2,)': 'undetectable d9f4d42a725814c2 937ea181a43806bf',
                   'absent=(3,) liars=(2,)': 'undetectable 2e3fc4e2b7822734 639b8881d872188f',
                   'absent=(4,) liars=(2,)': 'undetectable 31b0ca25c439131a 62b81fa923acbca5',
                   'absent=(5,) liars=(2,)': 'undetectable c103332a92a78a4c 0a4c73f37f1acf64',
                   'liars=(3,)': 'DecodingFailure',
                   'absent=(0,) liars=(3,)': 'undetectable 345a6d21ec9bbf93 b742bf0f227b6b6d',
                   'absent=(1,) liars=(3,)': 'undetectable 7703e4faf7ca57fb e1b8ea9bbe2648a3',
                   'absent=(2,) liars=(3,)': 'undetectable d159e74b840e4aef 84a5bf58df298c40',
                   'absent=(4,) liars=(3,)': 'undetectable 335fee0aa79e2fec 713b997b35b8dd1c',
                   'absent=(5,) liars=(3,)': 'undetectable 9ec42303a894c27d aea2cb0bcc0cd007',
                   'liars=(4,)': 'DecodingFailure',
                   'absent=(0,) liars=(4,)': 'undetectable 9c18ce9d83bb99cd ed197a4831fef3ef',
                   'absent=(1,) liars=(4,)': 'undetectable c9b8561f06a2c98e cd9f7b91bb3caafe',
                   'absent=(2,) liars=(4,)': 'undetectable 8ad9f9604f5fbbda 820395b859a4a64d',
                   'absent=(3,) liars=(4,)': 'undetectable ca8c609a0ba0c993 fd5a161554bc4996',
                   'absent=(5,) liars=(4,)': 'undetectable ccfae41a05b70f7b 3e052c1a01347adc',
                   'liars=(5,)': 'DecodingFailure',
                   'absent=(0,) liars=(5,)': 'undetectable 57f1ca5e0064e33b 1f079dd00d55d173',
                   'absent=(1,) liars=(5,)': 'undetectable aa25b87f4067bc9e aaf7ac8faee8b32f',
                   'absent=(2,) liars=(5,)': 'undetectable 9e8441a11d87ac59 e0e89f3e31040d7c',
                   'absent=(3,) liars=(5,)': 'undetectable 8856c1ee525efde7 a45adb7dbebb43c2',
                   'absent=(4,) liars=(5,)': 'undetectable 9e5042f88020ee53 7ff340e0be10fc24'}}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_decoder_outputs_match_pins(name):
    got = observe_instance(name)
    assert got.keys() == PINS[name].keys()
    for label, want in PINS[name].items():
        assert got[label] == want, label


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: observe_instance(name) for name in sorted(FACTORIES)},
                  width=100, sort_dicts=False)
