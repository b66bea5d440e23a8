"""The shared "world" catalogue.

The paper's experiments hinge on *world knowledge*: the LLM knows that a
"PlayStation 2 Memory Card" is made by Sony even though the record never says
so.  In this offline reproduction, the world is this module: a brand/product
catalogue, multilingual person-name gazetteers, and capitalised non-name
distractors.  Dataset generators sample from it; the simulated LLM's
knowledge base is a *partial, noisy view* of it (see
:mod:`repro.llm.knowledge`), which is what makes the LLM imperfect in the
calibrated way the experiments need.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Brand",
    "BRANDS",
    "brand_and_line_of_product",
    "FIRST_NAMES",
    "LAST_NAMES",
    "NON_NAME_PROPER_NOUNS",
    "BEER_STYLES",
    "BREWERY_WORDS",
    "CITY_NAMES",
    "CUISINES",
    "GENRES",
    "ARTIST_WORDS",
]


@dataclass(frozen=True)
class Brand:
    """A manufacturer with its product-line vocabulary."""

    name: str
    lines: tuple[str, ...]
    category: str


# ~90 brands across consumer-electronics categories, in the spirit of the Buy
# dataset (products with names/descriptions, manufacturer missing).
BRANDS: tuple[Brand, ...] = (
    Brand("Sony", ("PlayStation", "Walkman", "Bravia", "Cyber-shot", "Handycam", "VAIO", "Discman"), "electronics"),
    Brand("Microsoft", ("Xbox", "Zune", "Surface", "SideWinder", "LifeCam", "IntelliMouse"), "electronics"),
    Brand("Nintendo", ("GameCube", "Wii", "DS Lite", "Game Boy", "GBA"), "electronics"),
    Brand("Apple", ("iPod", "iPhone", "MacBook", "iMac", "AirPort", "Mac mini"), "electronics"),
    Brand("Samsung", ("Galaxy", "SyncMaster", "YP-", "BlackJack", "Omnia"), "electronics"),
    Brand("Panasonic", ("Lumix", "Viera", "Toughbook", "RAMSA", "Technics"), "electronics"),
    Brand("Canon", ("PowerShot", "EOS", "PIXMA", "imageCLASS", "Selphy"), "cameras"),
    Brand("Nikon", ("Coolpix", "D40", "D80", "Nikkor", "SB-600"), "cameras"),
    Brand("Olympus", ("Stylus", "Evolt", "FE-", "SP-", "Camedia"), "cameras"),
    Brand("Kodak", ("EasyShare", "PlaySport", "Zi8"), "cameras"),
    Brand("Fujifilm", ("FinePix", "Instax"), "cameras"),
    Brand("HP", ("Pavilion", "DeskJet", "LaserJet", "Photosmart", "iPAQ", "OfficeJet"), "computers"),
    Brand("Dell", ("Inspiron", "Latitude", "XPS", "Dimension", "OptiPlex"), "computers"),
    Brand("Lenovo", ("ThinkPad", "IdeaPad", "ThinkCentre"), "computers"),
    Brand("Toshiba", ("Satellite", "Portege", "Qosmio", "Gigabeat"), "computers"),
    Brand("Acer", ("Aspire", "TravelMate", "Ferrari"), "computers"),
    Brand("Asus", ("Eee PC", "ZenBook", "Transformer"), "computers"),
    Brand("Gateway", ("Profile", "Solo"), "computers"),
    Brand("Compaq", ("Presario", "Armada"), "computers"),
    Brand("IBM", ("ThinkVision", "NetVista"), "computers"),
    Brand("Logitech", ("QuickCam", "Harmony", "MX Revolution", "diNovo", "Wingman"), "accessories"),
    Brand("Belkin", ("TuneCast", "SurgeMaster", "Wireless G"), "accessories"),
    Brand("Kensington", ("SlimBlade", "Orbit", "MicroSaver"), "accessories"),
    Brand("Targus", ("CityGear", "DefCon", "Notepac"), "accessories"),
    Brand("SanDisk", ("Sansa", "Cruzer", "Ultra II", "Memory Stick Pro"), "storage"),
    Brand("Kingston", ("DataTraveler", "ValueRAM", "HyperX"), "storage"),
    Brand("Seagate", ("Barracuda", "FreeAgent", "Momentus"), "storage"),
    Brand("Western Digital", ("My Book", "Caviar", "Passport"), "storage"),
    Brand("Maxtor", ("OneTouch", "DiamondMax"), "storage"),
    Brand("Iomega", ("Zip Drive", "ScreenPlay", "StorCenter"), "storage"),
    Brand("LaCie", ("Porsche Drive", "Rugged", "d2 Quadra"), "storage"),
    Brand("Lexar", ("JumpDrive", "Platinum II"), "storage"),
    Brand("Garmin", ("nuvi", "StreetPilot", "Forerunner", "eTrex", "Zumo"), "gps"),
    Brand("TomTom", ("GO 910", "ONE XL", "RIDER"), "gps"),
    Brand("Magellan", ("Maestro", "RoadMate", "eXplorist"), "gps"),
    Brand("Motorola", ("RAZR", "MOTOKRZR", "Bluetooth H500", "TalkAbout"), "phones"),
    Brand("Nokia", ("N95", "E62", "6300", "5300 XpressMusic"), "phones"),
    Brand("BlackBerry", ("Pearl", "Curve", "8700c"), "phones"),
    Brand("Palm", ("Treo", "Tungsten", "Zire"), "phones"),
    Brand("Plantronics", ("Voyager", "Discovery 655", "Audio 470"), "audio"),
    Brand("Bose", ("QuietComfort", "SoundDock", "Wave Radio", "Companion 3"), "audio"),
    Brand("Sennheiser", ("HD 555", "PX 100", "RS 130"), "audio"),
    Brand("JBL", ("On Stage", "Creature II", "Radial"), "audio"),
    Brand("Klipsch", ("ProMedia", "iGroove"), "audio"),
    Brand("Altec Lansing", ("inMotion", "VS2121"), "audio"),
    Brand("Harman Kardon", ("SoundSticks", "Drive+Play"), "audio"),
    Brand("Pioneer", ("AVIC", "DEH-", "Elite VSX"), "audio"),
    Brand("Kenwood", ("KDC-", "eXcelon"), "audio"),
    Brand("Alpine", ("CDA-", "IVA-", "PDX-"), "audio"),
    Brand("JVC", ("Everio", "KD-", "HA-"), "audio"),
    Brand("Denon", ("AVR-", "DCM-"), "audio"),
    Brand("Onkyo", ("TX-SR", "HT-S"), "audio"),
    Brand("Yamaha", ("RX-V", "YST-", "HTR-"), "audio"),
    Brand("Creative", ("Zen", "Sound Blaster", "MuVo", "Inspire T"), "audio"),
    Brand("iRiver", ("Clix", "H10", "T60"), "audio"),
    Brand("Philips", ("GoGear", "Norelco", "Sonicare", "Streamium"), "electronics"),
    Brand("Sharp", ("Aquos", "Notevision"), "electronics"),
    Brand("LG", ("Chocolate", "enV", "Flatron"), "electronics"),
    Brand("Sanyo", ("Xacti", "Katana"), "electronics"),
    Brand("Casio", ("Exilim", "Pathfinder", "G-Shock"), "electronics"),
    Brand("Epson", ("Stylus", "PowerLite", "Perfection"), "printers"),
    Brand("Brother", ("HL-", "MFC-", "P-touch"), "printers"),
    Brand("Xerox", ("Phaser", "WorkCentre", "DocuMate"), "printers"),
    Brand("Lexmark", ("X4550", "Z845", "E120n"), "printers"),
    Brand("D-Link", ("AirPlus", "DIR-655", "DGS-"), "networking"),
    Brand("Linksys", ("WRT54G", "EtherFast", "Wireless-N"), "networking"),
    Brand("Netgear", ("RangeMax", "ProSafe", "WGR614"), "networking"),
    Brand("TRENDnet", ("TEW-", "TK-"), "networking"),
    Brand("Cisco", ("Catalyst", "Aironet"), "networking"),
    Brand("APC", ("Back-UPS", "Smart-UPS", "SurgeArrest"), "power"),
    Brand("Tripp Lite", ("SmartPro", "Isobar"), "power"),
    Brand("CyberPower", ("Intelligent LCD", "AVR Series"), "power"),
    Brand("Energizer", ("e2 Lithium", "Rechargeable NiMH"), "power"),
    Brand("Duracell", ("CopperTop", "PowerPix"), "power"),
    Brand("ViewSonic", ("ViewPanel", "VX2235wm", "VA1912w"), "monitors"),
    Brand("NEC", ("MultiSync", "AccuSync"), "monitors"),
    Brand("BenQ", ("FP202W", "Joybook"), "monitors"),
    Brand("Hitachi", ("Deskstar", "UltraVision", "Travelstar"), "electronics"),
    Brand("TiVo", ("Series2", "Series3 HD"), "electronics"),
    Brand("Netflix", ("Player by Roku",), "electronics"),
    Brand("GE", ("Digital Messaging", "Cordless 5.8GHz"), "electronics"),
    Brand("Uniden", ("TRU8885", "DECT"), "phones"),
    Brand("VTech", ("DS6111", "CS6219"), "phones"),
    Brand("RCA", ("Lyra", "Small Wonder"), "electronics"),
    Brand("Griffin", ("iTrip", "PowerMate", "AirClick"), "accessories"),
    Brand("DLO", ("HomeDock", "TransPod"), "accessories"),
    Brand("Monster", ("iCarPlay", "Cable THX"), "accessories"),
    Brand("Case Logic", ("Sporty Backpack", "Slim Laptop Case"), "accessories"),
    Brand("Wacom", ("Intuos", "Graphire", "Bamboo"), "accessories"),
    Brand("Fellowes", ("Powershred", "Microban"), "office"),
    Brand("3M", ("Privacy Filter", "Scotch"), "office"),
    Brand("Honeywell", ("QuietCare", "TurboForce"), "appliances"),
    Brand("Black & Decker", ("Dustbuster", "VersaPak"), "appliances"),
)

_LINE_TO_BRAND: dict[str, str] = {}
for _brand in BRANDS:
    for _line in _brand.lines:
        _LINE_TO_BRAND[_line.lower()] = _brand.name


def brand_and_line_of_product(product_name: str) -> tuple[str | None, str | None]:
    """Ground-truth ``(manufacturer, matched_line)`` of a product name.

    This implements the "world" oracle: the generator uses it to label data
    and the evaluation uses it to score predictions.  Longer line names are
    matched first so "Memory Stick Pro" beats "Memory".  The matched line is
    returned so callers (the simulated LLM's knowledge gaps) can key their
    behaviour on the *product line* rather than the exact phrasing.
    """
    lowered = product_name.lower()
    best: tuple[int, str, str] | None = None
    for line, brand in _LINE_TO_BRAND.items():
        if line in lowered and (best is None or len(line) > best[0]):
            best = (len(line), brand, line)
    if best is not None:
        return best[1], best[2]
    # Fall back to an explicit brand-name mention (whole words only, so
    # "GE" never matches inside "Gadget").
    for brand in BRANDS:
        if re.search(r"\b" + re.escape(brand.name.lower()) + r"\b", lowered):
            return brand.name, None
    return None, None


# -- person names ---------------------------------------------------------------

FIRST_NAMES: dict[str, tuple[str, ...]] = {
    "en": (
        "James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
        "Linda", "William", "Elizabeth", "David", "Barbara", "Richard",
        "Susan", "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen",
        "Emily", "Daniel", "Laura", "Matthew", "Grace", "Andrew", "Hannah",
    ),
    "es": (
        "José", "María", "Antonio", "Carmen", "Juan", "Ana", "Manuel",
        "Isabel", "Francisco", "Dolores", "Luis", "Pilar", "Javier", "Teresa",
        "Miguel", "Rosa", "Carlos", "Lucía", "Alejandro", "Elena", "Diego",
        "Sofía", "Pablo", "Marta",
    ),
    "de": (
        "Hans", "Anna", "Peter", "Ursula", "Wolfgang", "Monika", "Klaus",
        "Petra", "Jürgen", "Sabine", "Dieter", "Renate", "Manfred", "Helga",
        "Uwe", "Ingrid", "Stefan", "Claudia", "Matthias", "Katrin", "Lukas",
        "Greta",
    ),
    "fr": (
        "Jean", "Marie", "Pierre", "Monique", "Michel", "Catherine", "André",
        "Françoise", "Philippe", "Nathalie", "Alain", "Isabelle", "Jacques",
        "Sylvie", "Bernard", "Martine", "Éric", "Sophie", "Claude", "Camille",
        "Luc", "Amélie",
    ),
    "zh": (
        "Wei", "Fang", "Jun", "Na", "Ming", "Li", "Qiang", "Xiuying", "Lei",
        "Yan", "Tao", "Juan", "Chao", "Xia", "Peng", "Hui", "Jie", "Mei",
        "Hao", "Lin",
    ),
}

LAST_NAMES: dict[str, tuple[str, ...]] = {
    "en": (
        "Smith", "Johnson", "Williams", "Brown", "Jones", "Miller", "Davis",
        "Wilson", "Anderson", "Taylor", "Thomas", "Moore", "Jackson",
        "Martin", "Lee", "Thompson", "White", "Harris", "Clark", "Lewis",
    ),
    "es": (
        "García", "Rodríguez", "Martínez", "Hernández", "López", "González",
        "Pérez", "Sánchez", "Ramírez", "Torres", "Flores", "Rivera", "Gómez",
        "Díaz", "Morales", "Ortiz", "Castillo", "Ruiz", "Vargas", "Mendoza",
    ),
    "de": (
        "Müller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer",
        "Wagner", "Becker", "Schulz", "Hoffmann", "Koch", "Bauer", "Richter",
        "Klein", "Wolf", "Schröder", "Neumann", "Braun", "Zimmermann",
    ),
    "fr": (
        "Martin", "Bernard", "Dubois", "Thomas", "Robert", "Richard", "Petit",
        "Durand", "Leroy", "Moreau", "Simon", "Laurent", "Lefebvre", "Michel",
        "Garnier", "Rousseau", "Fontaine", "Chevalier",
    ),
    "zh": (
        "Wang", "Li", "Zhang", "Liu", "Chen", "Yang", "Huang", "Zhao", "Wu",
        "Zhou", "Xu", "Sun", "Ma", "Zhu", "Hu", "Guo", "He", "Lin", "Gao",
        "Luo",
    ),
}

# Capitalised proper nouns that are NOT person names: the distractor set the
# tagging operator must reject.
NON_NAME_PROPER_NOUNS: tuple[str, ...] = (
    "Boston", "Madrid", "Berlin", "Paris", "Beijing", "London", "Chicago",
    "Barcelona", "Munich", "Lyon", "Shanghai", "Seattle", "Valencia",
    "Hamburg", "Marseille", "Shenzhen", "Austin", "Sevilla", "Frankfurt",
    "Toulouse", "Hangzhou", "Denver", "Acme Corporation", "Globex",
    "Initech", "Stark Industries", "Wayne Enterprises", "Umbrella Corp",
    "Cyberdyne Systems", "Tyrell Corporation", "Hooli", "Vandelay Industries",
    "Monday", "Tuesday", "January", "September", "Christmas", "Easter",
    "Europe", "Asia", "America", "Internet", "University",
)

# -- entity-resolution vocabulary -------------------------------------------------

BEER_STYLES: tuple[str, ...] = (
    "IPA", "Double IPA", "Pale Ale", "Amber Ale", "Brown Ale", "Porter",
    "Imperial Stout", "Oatmeal Stout", "Milk Stout", "Pilsner", "Lager",
    "Hefeweizen", "Witbier", "Saison", "Tripel", "Dubbel", "Barleywine",
    "Kölsch", "ESB", "Red Ale", "Golden Ale", "Scotch Ale", "Bock",
)

BREWERY_WORDS: tuple[str, ...] = (
    "Stone", "Anchor", "Bear Republic", "Dogfish Head", "Lagunitas",
    "Sierra Nevada", "Founders", "Great Divide", "Rogue", "Oskar Blues",
    "Deschutes", "Harpoon", "Smuttynose", "Victory", "Troegs", "Bells",
    "Goose Island", "New Belgium", "Left Hand", "Avery", "Flying Dog",
    "Green Flash", "Ballast Point", "Cigar City", "Odell", "Boulevard",
    "Summit", "Surly", "Alpine", "Russian River", "Firestone Walker",
    "Three Floyds", "Half Acre", "Revolution", "Metropolitan",
)

CITY_NAMES: tuple[str, ...] = (
    "New York", "Los Angeles", "San Francisco", "Chicago", "Boston",
    "Seattle", "Portland", "Austin", "Denver", "Miami", "Atlanta",
    "Philadelphia", "Phoenix", "San Diego", "Dallas", "Houston",
    "Minneapolis", "Detroit", "Baltimore", "Washington",
)

CUISINES: tuple[str, ...] = (
    "Italian", "French", "American (New)", "American (Traditional)",
    "Japanese", "Chinese", "Mexican", "Thai", "Indian", "Mediterranean",
    "Steakhouses", "Seafood", "Pizza", "BBQ", "Cafe", "Delis",
    "Vietnamese", "Korean", "Greek", "Spanish",
)

GENRES: tuple[str, ...] = (
    "Pop", "Rock", "Alternative", "Hip-Hop/Rap", "R&B/Soul", "Country",
    "Electronic", "Dance", "Jazz", "Classical", "Folk", "Indie Rock",
    "Metal", "Reggae", "Blues", "Soundtrack", "Latin", "World", "Punk",
    "Singer/Songwriter",
)

ARTIST_WORDS: tuple[str, ...] = (
    "Midnight", "Crimson", "Velvet", "Echo", "Silver", "Golden", "Electric",
    "Neon", "Lunar", "Solar", "Wild", "Broken", "Silent", "Burning",
    "Frozen", "Painted", "Hollow", "Rising", "Falling", "Distant",
    "Arrows", "Foxes", "Wolves", "Rivers", "Harbors", "Engines", "Mirrors",
    "Gardens", "Shadows", "Satellites", "Parades", "Lanterns", "Anthems",
)
