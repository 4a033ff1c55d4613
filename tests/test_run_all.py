"""scripts/run_all.py writes the same 30 reports, byte for byte, as the
code these hashes were frozen from.  The comparison masks the config and
output paths as scripts/diff_reports.py does.  A change that means to
move a reported number updates the hash here and names the change in
CHANGES.md."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_all, diff_reports = _load("run_all"), _load("diff_reports")

# sha256 of each masked report
FROZEN = {
    "condition22-osc.csv": "cb2768b3b452fb88b26ec62d79b35de6f74d9d55e253d0ca40640691c2356c91",
    "condition22-osc.json": "a40d916fdcc8b3c4a5d224db0ec109fa85e0cdbd2a8f952d0500e2141a1a8ff6",
    "condition22-pp11.csv": "2b50e70db740ffa8c22e0ef7afa65107239a74343922c6003df8eab6bf70242c",
    "condition22-pp11.json": "e571c0f377de98cc075272f6b3f635711f0f1588aa99e3c18ad3f75706c1d05f",
    "eta-osc-eps005.csv": "097b44cdf61951589670c451599566238179effa1ba05c401150707fadfd4042",
    "eta-osc-eps005.json": "e47a96676aea6760a45f3e07c11adfeb157fe7010058d026d8b91546a2755742",
    "eta-osc-eps02.csv": "f3ea8ba7058bfa558bc3d1a348e95f8877470faf5a2ab73d24c9e278d148f5bd",
    "eta-osc-eps02.json": "846be289d09d33d0287672c6d6e7167923adab4a1acd4a14525a49115408ca8b",
    "lemma1-osc.csv": "b8d135f337ab60f515e46c47248bfabe0dfc99f60b2fa51e8ea367bc67c83eea",
    "lemma1-osc.json": "54584495ac6fbb8c412b9010e237945a5765371050b233e8089f2314b6a5f4ac",
    "lemma2-osc.csv": "e1c132d72af11ce45af25f2c1a50d0471707c3edde2aa872d9fbe92ee2ba776d",
    "lemma2-osc.json": "3f9939ef483742256e239ac5846f673b60c6cd6a8f6c2a3e7e3421227ac1b657",
    "lemma3-osc.csv": "d770562c6c32985e8122e132343283e19082c2587884b2cdf6cf8035b5aa4239",
    "lemma3-osc.json": "5cc85f0ddd26bfedd82d4cc14192414a7e2371713cb7df0ab9f3e470f3059625",
    "membership-mod3-r3.csv": "6319be036cd1410865ba2348674baa5d5ae1edbdb89597c01556f8582c574de8",
    "membership-mod3-r3.json": "662da1e4cf5894358d37eab5bd6f0889de563abb12705ff4ba3236deab8de0e1",
    "membership-osc-r1.csv": "26fcece8df38234e99966c7922c43c3ac83d6fe4df6847cfdeebc9b81ee225c4",
    "membership-osc-r1.json": "d3578cdcb5a03739f1a4bb4a5e61a971f450abe8fd0016299e311a0d75536613",
    "membership-osc-r2.csv": "897237ca6560f4f1eb0289dca200d24ce6ab2eeef8508726c39ff730804352e8",
    "membership-osc-r2.json": "96474c31f1bc70840ca8afb4e1aba4df08aec16535c2571d1e795439a3bfb409",
    "partial-sum-osc.csv": "3a93006577614f617b2717eda4c7932642cc899befbd3848220acaf4672838c3",
    "partial-sum-osc.json": "d6facee29205b3716ae31efc03b9ea161eec1f1e00f1d8b6d60ec0df4aa56b54",
    "remark2.csv": "b30b7aedd8da245f8808c3c6a9a94d0542fd9bfae280342805da22b5d0f86b51",
    "remark2.json": "1908916772b75e58f044f3cc7462f9a05758bfa86be4b36964c317fe3b2ffdb2",
    "uniform-tail-mod3.csv": "564881150ff52990f3ebac574bf0f7483a7c69f69a9a81176e756f150755f02c",
    "uniform-tail-mod3.json": "72f6a8b314d94feb849a969cf29b4a61c15755d3f6cfb12e54fdd261eb6176cf",
    "uniform-tail-osc.csv": "3c41d83bb2ffcfbc9177112ee7befd3711e21ed8f42297b91d33e63b4bbe250b",
    "uniform-tail-osc.json": "54d51e39220b8cc3ae347018dab12cc935d6b6b87acbf01c4bfaf4c8452c7533",
    "verify-identities.csv": "feab9f50f06d4ede71289d64ddfb7fe74f940de65977ea006716cb5ee1dd92c7",
    "verify-identities.json": "4c06ac117d43bae8954b0ae4af0e02803251a03bbd6ef0c5c20f22db47e3bf2a",
}


def test_shipped_reports_are_frozen(tmp_path, capsys):
    assert run_all.main(["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(diff_reports.masked(p)).hexdigest()
           for p in tmp_path.iterdir()}
    assert sorted(name for name in FROZEN.keys() | got.keys()
                  if got.get(name) != FROZEN.get(name)) == []
