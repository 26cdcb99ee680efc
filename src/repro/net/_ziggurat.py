"""numpy's 256-layer exponential ziggurat tables, as data.

``ke_double`` / ``we_double`` / ``fe_double`` of
``numpy/random/src/distributions/ziggurat_constants.h``, copied once from
the static arrays of numpy 2.4.6's ``numpy/random/_generator*.so`` (found by
searching for ``we_double[255] = 7.69711747013104972 / 2**53``) and never
read from a binary at run time. The textbook recurrence does not reproduce
them bit for bit (133 / 21 / 13 entries differ), and
:meth:`repro.net.rand.Pcg64.exponential` matches ``Generator.exponential``
only with these exact values. Packed little-endian as 256 uint64 + 256
float64 + 256 float64, base64; sha256 of the packed bytes
``0d6e976213179f23220006494ca271c75af26c01872ff952ef983d10305e1a95``.

The tables are numpy's (the ziggurat method derived there from Julia's):

Copyright (c) 2005-2017, NumPy Developers. All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are met:

* Redistributions of source code must retain the above copyright notice,
  this list of conditions and the following disclaimer.
* Redistributions in binary form must reproduce the above copyright notice,
  this list of conditions and the following disclaimer in the documentation
  and/or other materials provided with the distribution.
* Neither the name of the NumPy Developers nor the names of any contributors
  may be used to endorse or promote products derived from this software
  without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE
DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE
FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR CONSEQUENTIAL
DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR
SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER
CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY,
OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import binascii
import struct

#: The last layer's right edge; the tail beyond it is drawn by inversion.
ZIGGURAT_EXP_R = 7.69711747013104972

_VALUES = struct.unpack("<256Q512d", binascii.a2b_base64(
    "xpckJxRSHAAAAAAAAAAAAH4xnNdbfRMAEDw/jvVuGACusA4yt5saAHxEGfcn0RsAGmWIDx2VHAByOVwt/hsdALIYa9Vbfh"
    "0AcCwX3TTJHQDInazfCQQeADZ41HF7Mx4Aord8F4taHgBsBG8JQnseAD6uCK8Nlx4AnvBOsfWuHgBWZbQHvcMeAM6Zh/D2"
    "1R4AiFZurhTmHgDQHDbKbvQeAKTU3XZLAR8AtpanE+MMHwB69/FpYxcfAHAlRQzyIB8AdKhRGa4pHwAyVbmPsTEfAAbBV1"
    "ESOR8ATGlu6+I/HwD6iNcyM0YfAA46Hb8QTB8AIjNcTIdRHwDA7MMJoVYfAJaZCdlmWx8AjNAQguBfHwByV0TdFGQfAHiW"
    "hfYJaB8A5gIrKsVrHwD05DI9S28fADrxkHGgch8A1glNl8h1HwDAXAQbx3gfAPQ/QRKfex8Aip8HRlN+HwA4EeI75oAfAG"
    "KRrT1agx8AErlWYLGFHwBiQrKJ7YcfAPp0k3UQih8ArDk9uhuMHwBK0EXMEI4fABY+AQLxjx8A4FiDlr2RHwDYr0esd5Mf"
    "ANpki08glR8AkjhjeLiWHwCSiJYMQZgfAIC6RuG6mR8AAH9pvCabHwB6cRtWhZwfAALYz1nXnR8AzqFhZx2fHwDANgkUWK"
    "AfADgzOuuHoR8A/MRrb62iHwCCBs4ayaMfAKJq7l/bpB8AfAlNquSlHwCCZ+Re5aYfAMQepdzdpx8AdKjmfM6oHwDuX86T"
    "t6kfAFi4rXCZqh8AMoJYXnSrHwCEBXSjSKwfAOifv4IWrR8AwIJXO96tHwBsHfIIoK4fAH6wGCRcrx8AEnpbwhKwHwD034"
    "EWxLAfAPrxtlBwsR8AOpaynheyHwBKqN8rurIfABhOfyFYsx8ADL7JpvGzHwDWrAzhhrQfAPyTx/MXtR8Aqv3FAKW1HwBY"
    "/jcoLrYfAAoByYizth8AmAe1PzW3HwCofdxos7cfAAi61h4uuB8A9kcDe6W4HwB0D5qVGbkfAARyuoWKuR8AJm95Yfi5Hw"
    "CG4u49Y7ofABbsQS/Luh8ARJG0SDC7HwDipK6ckrsfAJ4CyDzyux8AlCnSOU+8HwDUQOGjqbwfAJ6PVIoBvR8AnHLe+1a9"
    "HwBq1osGqr0fAEA/y7f6vR8A3mRzHEm+HwBeaclAlb4fACixhjDfvh8AdGHe9ia/HwDiioKebL8fAMQEqTGwvx8AsP0Puv"
    "G/HwCIRQJBMcAfALJUW89uwB8AJhSLbarAHwCKaZkj5MAfAGSKKfkbwR8AQhl99VHBHwBKD3cfhsEfALR0nn24wR8AQuog"
    "FunBHwDeBdXuF8IfAP6DPA1Fwh8Awk+GdnDCHwAOY5AvmsIfAEaA6TzCwh8AtMbSoujCHwDsIkFlDcMfAA6c3ocwwx8Axn"
    "4LDlLDHwD4Zt/6ccMfAIYoKlGQwx8A+pd0E63DHwBIMwFEyMMfAECrzOThwx8AqE2O9/nDHwBgULh9EMQfAGj9d3glxB8A"
    "xr+16DjEHwAqERXPSsQfAOhH9CtbxB8ABEVs/2nEHwCyAVBJd8QfALj7KwmDxB8A9n9FPo3EHwAa0pnnlcQfALAw3QOdxB"
    "8AMrR5kaLEHwD8B46OpsQfAIz76/ioxB8AnuoWzqnEHwA0+kELqcQfAKAoTq2mxB8AdC7IsKLEHwDiLeYRncQfAPQthcyV"
    "xB8AwF4m3IzEHwB6I+w7gsQfAObeluZ1xB8Agn6B1mfEHwA2wJ0FWMQfACAucG1GxB8AmMsLBzPEHwAObg3LHcQfAPa7lr"
    "EGxB8AYstIsu3DHwA8WT7E0sMfALSRBd61wx8ATGGZ9ZbDHwCSRVoAdsMfAHCTBvNSwx8AGCiywS3DHwCIeL1fBsMfAGLy"
    "y7/cwh8Anp+507DCHwDw/I+MgsIfAGTxedpRwh8AntO2rB7CHwBWZ4zx6MEfADy7N5awwR8AEM3chnXBHwC21nSuN8EfAB"
    "Qku/b2wB8ApE0YSLPAHwDwr4uJbMAfAGTzkqAiwB8AuHIPcdW/HwCOSCndhL8fAArGL8Uwvx8Axgx3B9m+HwDafTKAfb4f"
    "ABSmSwkevh8ACEQ1erq9HwAm+LmnUr0fABogxmPmvB8A5E0sfXW8HwCqt2O//7sfAKLmP/KEux8AjNGg2QS7HwCscBo1f7"
    "ofABi2kr/zuR8A/KvULmK5HwAWShczyrgfAFRbdnYruB8AXIlbnIW3HwCUVdVA2LYfAEJp2fcith8A4DdvTGW1HwDSab+/"
    "nrQfAEbnA8jOsx8APpxTz/SyHwBSKEQyELIfAASWWj4gsR8AwuFCMCSwHwCmecQxG68fAAThZ1cErh8Aci2/nd6sHwAKBk"
    "DmqKsfACj/mfNhqh8AomZvZQipHwA8jVCzmqcfABTy0SYXph8AAOqL1HukHwCUwMWTxqIfABTzffT0oB8ACr5rMwSfHwC8"
    "+Xkr8ZwfAMSrFUS4mh8AuC94W1WYHwB4P9Crw5UfAPLxzqn9kh8AHOSa2vyPHwD4hXOeuYwfAAaWR+wqiR8AjtsE+UWFHw"
    "CaAzbD/YAfACbpOXhCfB8AzCpYowB3HwAcJBoPIHEfACo1tzSCah8AZuKoAABjHwDE40+QZlofAHIRzk5yUB8A2m9cZsdE"
    "HwCiWYqj5TYfAAo0UDQUJh8AFAR7BD4RHwDmy1f6rvYeAB4ViKGM0x4AsC0SHqaiHgB8JovHYVkeALALrCv23R0AwOjk2U"
    "3bHADBXb+U7GTRPBlBXYudWGA8K01bSbLWajy6jVupNZNxPHMqSuXmInU8gHrC+5BQeDzMt3nv0Th7PJi9bbfY7H08PFzG"
    "SfA7gDxw9tYk23CBPDMm2pACmII8ym49/oizgzwh/gvGFcWEPMNKAp34zYU8vSun8EDPhjwZ0BfazcmHPG9g01RZvog80j"
    "ciVYCtiTwDUl2+yJeKPMSj3d2lfYs8iT+M13tfjDw2fPFNoj2NPFpz8XhmGI48qk9fzwzwjjwJMmhd0sSPPFh1au12S5A8"
    "/ICbR0izkDyv9UmH8xmRPKDfS+uMf5E850k+6SbkkTwu/zhl0keSPAtoI+GeqpI8S9ompZoMkzwCgm3i0m2TPKBiIdFTzp"
    "M8SGdwyigulDwS5zVfXI2UPJMLzWv465Q8TW94KQZKlTz9vrg9jqeVPM8u3ceYBJY84GgMbS1hljxEqfpiU72WPLuQeXkR"
    "GZc8c3kHI250lzxygX58b8+XPJnV/lMbKpg87OErL3eEmDwqxdBQiN6YPESi/b1TOJk8OBOtQt6RmTy/A/91LOuZPEqIFL"
    "5CRJo8YdKWUyWdmjzJJPJE2PWaPJuXTHlfTps8iY8/s76mmzyZ/lmT+f6bPJ/ScJoTV5w821rCKxCvnDz75vCO8gadPI1r"
    "2PG9Xp08V5BCanW2nTz+MXz3Gw6ePEQQz4O0ZZ48Yhvi5UG9njyflALixhSfPLX+VytGbJ88oakEZcLDnzzZPJoRnw2gPG"
    "KxDfZdOaA8+HZyHB9loDxyAEu745CgPDcBcQOtvKA8Zi96IHzooDwVrBc5UhShPL59cG8wQKE8+3934RdsoTyWIz2pCZih"
    "PINSPd0GxKE84sSpkBDwoTwFDrHTJxyiPCmjwrNNSKI8nxjQO4N0ojyqzYt0yaCiPF07pWQhzaI8IRcDEYz5ojwRdvt8Ci"
    "ajPKEbiqqdUqM88BqFmkZ/ozz8789MBqyjPG0zjcDd2KM8xAlP9M0FpDzQbEbm1zKkPKdscZT8X6Q8xIPI/DyNpDykGGsd"
    "mrqkPOpFy/QU6KQ8+wDZga4VpTz4tSzEZ0OlPCdvMbxBcaU8+ZxOaz2fpTw1kxHUW82lPCbPVvqd+6U8Lhpz4wQqpjyMm1"
    "yWkVimPO7r0xtFh6Y83zyNfiC2pjwIplnLJOWmPPupUBFTFKc8HAT6YaxDpzww0XfRMXOnPAoksXbkoqc89xd9a8XSpzx3"
    "cs7M1QKoPCrm37oWM6g85whhWYljqDxUD6TPLpSoPJRgzEgIxag8ExX+8xb2qDzhc44EXCepPIqCNbLYWKk89LtAOY6KqT"
    "xdA8fafbypPFHp3dyo7qk8LVnQihAhqjyQxlY1tlOqPA/z0DKbhqo8emWB38C5qjz/rMqdKO2qPLWLbtbTIKs8QiXP+MNU"
    "qzy2TzJ7+oirPBAmB9t4vas8hf0tnUDyqzwt4EJOUyesPKSx6oKyXKw8+yMj2F+SrDxspZXzXMisPIBx7YOr/qw8rfIwQU"
    "01rTz+ox7tQ2ytPAqljVORo608fzXSSjfbrTybUCa0NxOuPFKkFnyUS648fyP0mk+Erjx4dkoVa72uPGiRW/zo9q48f7yg"
    "bsswrzzQXlGYFGuvPOXh77PGpa882AndCuTgrzzUEfl6Nw6wPBs5Ee80LLA8oySSnmtKsDzbJhHP3GiwPA+tOs+Jh7A8Gc"
    "gz93OmsDxvlACpnMWwPLfP71AF5bA8zu8LZq8EsTxKFZJqnCSxPCs6b+zNRLE8wQTEhUVlsTyerm/dBIaxPCB4oqcNp7E8"
    "Wip4pmHIsTxwM5uqAuqxPKL08JPyC7I8UOVPUjMusjy6O0DmxlCyPKbax2Gvc7I8K1NC6e6WsjxR20W0h7qyPHAtlg583r"
    "I8ZVkmWc4CszzQpyoLgSezPGXJO7OWTLM8VqiM+BFyszxDUTSc9ZezPIOLjXpEvrM80N6tjAHlszyt7vXpLwy0PPhCvcnS"
    "M7Q8LMkbhe1btDwylNOYg4S0PEyhXaeYrbQ8J7EcezDXtDwIlbkITwG1PLKqrHH4K7U8Wqf4BjFXtTxhRBtM/YK1PAfhOP"
    "phr7U8nr2IA2TctTx5GAiXCAq2PJQueyRVOLY8MvTDYE9ntjzuSJdK/Za2PB57mi9lx7Y8ByX0sY34tjwY0lzOfSq3PMNx"
    "veI8Xbc8+XFrtdKQtzzTdhR9R8W3PBIUbumj+rc8w77ALPEwuDxCc2gGOWi4PKtbac6FoLg8lTY7guLZuDxEdfPSWhS5PA"
    "4q/DT7T7k82BqN8dCMuTzq2SQ66sq5PHjxST5WCro8O0zoQyVLujzqhq3CaI26PMRF2IIz0bo8CrYDwJkWuzwP6pFQsV27"
    "PF7adtKRprs8d+9L3lTxuzyn4MJBFj68PPTIyEL0jLw8f6ny7A/evDzFOCdrjTG9POw77G+Uh708n/FOr1DgvTxgCRlu8j"
    "u+PMGD8yqvmr48SupQZ8L8vjyn95GXbmK/POXG9kP+y788Luxis+IcwDzvjvWLEVbAPE6ly83BkcA8oEhdeDHQwDymkkMD"
    "qBHBPCpEdWd4VsE81sKzvAOfwTx8+smgvOvBPJ+RWbYrPcI8papJrvWTwjzwEUSK4/DCPF73zCfuVMM8YbjIx07BwzxiE+"
    "RmlzfEPNFRR83XucQ89nPPPNhKxTzSE3Pheu7FPHK/S21nqsY8L8bq1lCHxzwZ7fLmn5PIPIV7SA3c6ck8/HHaUZ7DyzyD"
    "u34p2cnOPAAAAAAAAPA/NxGI5UUF7j/x/4FQptDsPyd763sA5es/Kn/mDg8h6z/n+mKlunbqP5ttVRWX3uk/OapVxDFU6T"
    "8v0tN2o9ToP7jFBnjoXeg/JjEkLYru5z9+1AmbboXnP2NLqVu7Iec/xhiEScPC5j8GXE9t+mfmP2avp8HtEOY/daxMaT29"
    "5T9zh9qCmGzlP5qJeBW6HuU/r/hRwWbT5D9p4I77aorkPyXhqK+ZQ+Q/gIuxK8v+4z8U0eFE3LvjP9ndCKeteuM/GGMORS"
    "M74z9e2kXjI/3iPyRPH7aYwOI/vTIREW2F4j+jUIwijkviP8g+gbrqEuI/iXuHGXPb4T8lOx7HGKXhP+5vzm3Ob+E/nBYz"
    "vIc74T+NwxxKOQjhPyseK4HY1eA/KtBUiFuk4D99O+4xuXPgP0hl0uvoQ+A/JPNgseIU4D92RSH+Pc3fP/rFv44tct8/TU"
    "Lr0YYY3z+QnZZLPcDeP1HTfTZFad4//DfhdZMT3j8MIaeIHb/dP3rtuX3Za90/Cxp+6b0Z3T+S4EDcwcjcP2D7g9nceNw/"
    "g6UO0AYq3D+17q4SONzbP4gLmVFpj9s/b4BUlJND2z9f7yg0sPjaP+X2/da4rto/QAGjaqdl2j/0IXUgdh3aP5I3Wmkf1t"
    "k/qHsJ8p2P2T8QgZqf7EnZPwRdVIwGBdk/OV23BOfA2D+MP7yEiX3YPzhhRLXpOtg/Wc62aQP51z8egMad0rfXP+NyXnNT"
    "d9c/6o2wMII31z+dnmQ+W/jWP5zp5CXbudY/nw3Gj/571j/kJ0hCwj7WP3ZY7x8jAtY/bO4xJh7G1T/vqTpssIrVP+ejvS"
    "HXT9U/9YnejY8V1T8d+SYO19vUP9PaixWrotQ/776AKwlq1D/iQRjr7jHUP06hMAJa+tM/hbKrMEjD0z/vfbFHt4zTP93Q"
    "/CilVtM/NSQxxg8h0z9wQjkg9evSP2IirkZTt9I/KXZFVyiD0j/9dkd9ck/SP/9+C/EvHNI/2wl7917p0T9avJrh/bbRP4"
    "IZGQwLhdE/75Hi3oRT0T+6n7rMaSLRP2ym2VK48dA/M1OP+G7B0D8TPulOjJHQP9KQXfAOYtA/LHx5gPUy0D9qR5OrPgTQ"
    "P1ST/0zSq88/fj6WXOdPzz+b4OgPuvTOP/JAWQBIms4/p4Mv1o5Azj85TyJIjOfNP7ju4xo+j80//TG0IKI3zT+f0PY4tu"
    "DMPwIYzk94isw/7q+5XeY0zD81RDln/t/LP6Xkcny+i8s/Pu/cuCQ4yz8LW+tCL+XKP0k8wEvckso/vFzfDipByj8SxeTR"
    "FvDJPyMWPuSgn8k/oZLmnsZPyT95uyVkhgDJP9ViUJ/escg/+RqMxM1jyD/m55RQUhbIP64bhchqycc//kafuRV9xz85KB"
    "q5UTHHP+qE7mMd5sY/KNqmXnebxj+s0TBVXlHGPzFqsPrQB8Y/tsJUCc6+xT/1eC5CVHbFP0mMB21iLsU/+rY8WPfmxD+W"
    "MJjYEaDEP8bMLcmwWcQ/mmo4C9MTxD8FqfiFd87DP8nVlCadicM/rwz630JFwz9ufb6qZwHDPzTPBIUKvsI/QJlgcip7wj"
    "946Lt7xjjCP2XKPa/d9sE/ZtYxIG+1wT94rvDmeXTBPy9xySD9M8E/IBfs7/fzwD8vtlR7abTAP76lt+5QdcA/BH9ueq02"
    "wD+N6sum/PC/PxQEGWaFdb8/PMODrvP6vj/MuY4ERoG+P/u6YfV6CL4/mJOtFpGQvT/XTZEGhxm9P1f9gGtbo7w/rxAu9A"
    "wuvD+PJnFXmrm7P0hlNVQCRrs/ZVRlsUPTuj+3ONk9XWG6Pyj0RtBN8Lk/cGszRxSAuT+5dOWIrxC5PztTWoMeorg/usQ7"
    "LGA0uD/zpteAc8e3Px48GYZXW7c/thaESAvwtj8gtjDcjYW2P/feylzeG7Y/PruR7fuytT820Fm55Uq1PynZkPKa47Q/XJ"
    "hD0xp9tD8OsSWdZBe0P56fm5l3srM/GOfGGVNOsz/RjZR29uqyP3AFzhBhiLI/jJ0sUZImsj9Ao2+oicWxP5JTdY9GZbE/"
    "UMpWh8gFsT87G4cZD6ewPxfI9dcZSbA/dpZputDXrz806ESZ9B6vP+WyLqWeZ64/EFgxSc6xrT9KeR4Dg/2sP+khB2S8Sq"
    "w/hdm+EHqZqz+EgGrCu+mqPzjxG0eBO6o/THx7gsqOqT9td4Bul+OoP2s5OhzoOag/ngirtLyRpz9Sr7Z5FeumP0GgJsfy"
    "RaY/ytLFE1WipT/rxZbyPAClPxlrJhSrX6Q//xj/R6DAoz+uFD9+HSOjPwzAVskjh6I/1BLzX7TsoT+hsxmf0FOhP1HWfA"
    "x6vKA/7voNWbImoD+QmK/H9iSfP2h0UXqu/50/DBszVJDdnD9wWPpQob6bP5tOkubmopo/SCoTD2eKmT9nmexTKHWYP5b8"
    "h9oxY5c/d0CicotUlj9RAqumPUmVP77wh85RQZQ/hF0xJdI8kz8yOrnhyTuSP19fclRFPpE/8AIeCVJEkD/Ox4ne/ZuOP1"
    "cnbhS5tow/LclCVfrYij+9p49o6gKJP/V0qua2NIc/yxbkC5NuhT9ib1HBuLCDP3F2s+1p+4E/+ddfKfJOgD/FXXT6UVd9"
    "PzZIl9TpI3o/IDbsN58Edz/9IuPOl/pzP0NAV2k9B3E/EUvNgbNYbD///qHziNhmPySj4ahrlGE/JT4MVLUrWT+5/I33Cr"
    "JPP0sLnzIcwz0/"))
KE, WE, FE = _VALUES[:256], _VALUES[256:512], _VALUES[512:]
del _VALUES
