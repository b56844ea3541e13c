"""Golden digests: the exact bytes of three verify suites' text and JSON
reports. A change that moves a byte fails here on purpose; when the move
is deliberate, update the digest and give the reason in CHANGES.md."""

import hashlib
import json

import pytest

# suite: (sha256 of format_text(), sha256 of the to_dict() JSON with the
# sorted keys and indent of `randcol verify --report`)
GOLDEN = {
    "alon_milman": (
        "9c57f025f2ae179479d58bc2fc51ceb8335e0b18b44b99e5b33ac09608e9aa03",
        "014611a38809421b97390e3d30987271b4598f981906fc5819b6c84430ce6815",
    ),
    "expansion": (
        "cab73aa5bd2b89eb78537a581cff08f894606daaf6fd0494896f1cfa2f120ee7",
        "4b9e3d86b5c47d64cb693c6cc1d31509e80c6b2d793919cf07068bd9ed377d25",
    ),
    "fixpoints": (
        "f039b0e9d05285210bed42e55542982d35ea893976c76bfb751ed9a053650100",
        "ec100644e3ea8a6b4a129b3cd27ec9386f680dac8700e4e3cde153b92aeb6ff8",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_suite_bytes_are_pinned(name, suite_report):
    report = suite_report(name)
    text, payload = GOLDEN[name]
    artefacts = (
        ("format_text()", report.format_text(), text),
        ("to_dict() JSON", json.dumps(report.to_dict(), sort_keys=True, indent=2), payload),
    )
    for what, got, want in artefacts:
        assert sha256(got) == want, (
            f"the {name} suite's {what} changed bytes; if the move is deliberate, "
            f"update its digest here and give the reason in CHANGES.md"
        )
